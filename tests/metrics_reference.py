"""The caption metrics as they were before the one-pass rewrite of
ragcap.metrics, kept verbatim as the oracle that tests/test_metrics.py
compares the rewrite against bit for bit. Every function here normalizes
and n-gram-counts each sentence again for each score and order.
"""

from __future__ import annotations

import json
import logging
import math
import string
from collections import Counter, defaultdict
from dataclasses import dataclass, field

log = logging.getLogger("ragcap.metrics")

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)

ROUGE_BETA = 1.2
CIDER_SIGMA = 6.0
CIDER_N = 4


def normalize_words(text: str) -> list[str]:
    """Lowercase, strip punctuation, split on whitespace."""
    return text.lower().translate(_PUNCT_TABLE).split()


def _ngram_counts(words: list[str], n: int) -> Counter:
    return Counter(tuple(words[i:i + n]) for i in range(len(words) - n + 1))


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------

def brevity_penalty(cand_len: int, ref_len: int) -> float:
    if cand_len == 0:
        return 0.0
    if cand_len >= ref_len:
        return 1.0
    return math.exp(1.0 - ref_len / cand_len)


def bleu_n(candidates: list[str], reference_sets: list[list[str]],
           n: int) -> float:
    """Corpus BLEU of order n: geometric mean of clipped precisions for
    orders 1..n times the brevity penalty (closest reference length)."""
    if n < 1 or n > 4:
        raise ValueError("BLEU order must be in 1..4")
    _check_corpus(candidates, reference_sets)
    matched = [0] * n
    total = [0] * n
    cand_len_sum = 0
    ref_len_sum = 0
    for cand, refs in zip(candidates, reference_sets):
        cw = normalize_words(cand)
        rws = [normalize_words(r) for r in refs]
        cand_len_sum += len(cw)
        # closest reference length (ties -> shorter)
        ref_len_sum += min((abs(len(rw) - len(cw)), len(rw)) for rw in rws)[1]
        for k in range(1, n + 1):
            cc = _ngram_counts(cw, k)
            max_ref = Counter()
            for rw in rws:
                rc = _ngram_counts(rw, k)
                for g, c in rc.items():
                    if c > max_ref[g]:
                        max_ref[g] = c
            matched[k - 1] += sum(min(c, max_ref[g]) for g, c in cc.items())
            total[k - 1] += sum(cc.values())
    if any(t == 0 for t in total) or any(m == 0 for m in matched):
        return 0.0
    log_prec = sum(math.log(m / t) for m, t in zip(matched, total)) / n
    return brevity_penalty(cand_len_sum, ref_len_sum) * math.exp(log_prec)


# ---------------------------------------------------------------------------
# ROUGE-L
# ---------------------------------------------------------------------------

def _lcs_length(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l_sentence(cand: str, refs: list[str], beta: float = ROUGE_BETA) -> float:
    """Max over references of the LCS F-measure."""
    cw = normalize_words(cand)
    best = 0.0
    for ref in refs:
        rw = normalize_words(ref)
        lcs = _lcs_length(cw, rw)
        if lcs == 0:
            continue
        prec = lcs / len(cw)
        rec = lcs / len(rw)
        f = (1 + beta ** 2) * prec * rec / (rec + beta ** 2 * prec)
        best = max(best, f)
    return best


def rouge_l(candidates: list[str], reference_sets: list[list[str]]) -> float:
    _check_corpus(candidates, reference_sets)
    return sum(rouge_l_sentence(c, rs)
               for c, rs in zip(candidates, reference_sets)) / len(candidates)


# ---------------------------------------------------------------------------
# CIDEr-D
# ---------------------------------------------------------------------------

def _cider_vec(words: list[str], doc_freq: dict, log_n: float):
    """Per-order tf-idf vectors, their norms, and the sentence length."""
    vecs = [defaultdict(float) for _ in range(CIDER_N)]
    norms = [0.0] * CIDER_N
    for k in range(1, CIDER_N + 1):
        for g, c in _ngram_counts(words, k).items():
            idf = log_n - math.log(max(1.0, doc_freq[g]))
            vecs[k - 1][g] = c * idf
        norms[k - 1] = math.sqrt(sum(v * v for v in vecs[k - 1].values()))
    return vecs, norms, len(words)


def cider(candidates: list[str], reference_sets: list[list[str]],
          return_per_item: bool = False):
    """CIDEr-D over the corpus (document frequencies from the references)."""
    _check_corpus(candidates, reference_sets)
    n_items = len(candidates)
    if n_items < 2:
        raise ValueError("CIDEr needs a corpus of size >= 2 for idf")
    doc_freq: dict = defaultdict(float)
    for refs in reference_sets:
        seen = set()
        for ref in refs:
            rw = normalize_words(ref)
            for k in range(1, CIDER_N + 1):
                seen.update(_ngram_counts(rw, k).keys())
        for g in seen:
            doc_freq[g] += 1.0
    log_n = math.log(float(n_items))

    per_item = []
    for cand, refs in zip(candidates, reference_sets):
        cvecs, cnorms, clen = _cider_vec(normalize_words(cand), doc_freq, log_n)
        score_n = [0.0] * CIDER_N
        for ref in refs:
            rvecs, rnorms, rlen = _cider_vec(normalize_words(ref), doc_freq, log_n)
            penalty = math.exp(-((clen - rlen) ** 2) / (2.0 * CIDER_SIGMA ** 2))
            for k in range(CIDER_N):
                val = sum(min(cvecs[k][g], rvecs[k][g]) * rvecs[k][g]
                          for g in cvecs[k])
                if cnorms[k] > 0 and rnorms[k] > 0:
                    score_n[k] += penalty * val / (cnorms[k] * rnorms[k])
        per_item.append(10.0 * sum(s / len(refs) for s in score_n) / CIDER_N)
    mean = sum(per_item) / n_items
    return (mean, per_item) if return_per_item else mean


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    bleu: list[float]          # BLEU-1..4
    rouge_l: float
    cider: float
    per_item: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"bleu": self.bleu, "rouge_l": self.rouge_l,
                "cider": self.cider, "per_item": self.per_item}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def table(self) -> str:
        """Tab-separated score table in the reporting column order."""
        header = "\t".join(["B-1", "B-2", "B-3", "B-4", "CIDEr", "ROUGE-L"])
        row = "\t".join(f"{v:.6f}" for v in
                        self.bleu + [self.cider, self.rouge_l])
        return header + "\n" + row + "\n"


def _check_corpus(candidates, reference_sets):
    if not candidates:
        raise ValueError("empty corpus")
    if len(candidates) != len(reference_sets):
        raise ValueError("candidate/reference count mismatch: "
                         f"{len(candidates)} vs {len(reference_sets)}")
    if any(not rs for rs in reference_sets):
        raise ValueError("every candidate needs at least one reference")


def evaluate_corpus(candidates: list[str],
                    reference_sets: list[list[str]]) -> EvalReport:
    _check_corpus(candidates, reference_sets)
    for i, cand in enumerate(candidates):
        if not normalize_words(cand):
            log.warning("candidate %d is empty after normalization", i)
    bleu = [bleu_n(candidates, reference_sets, n) for n in range(1, 5)]
    cider_mean, cider_items = cider(candidates, reference_sets,
                                    return_per_item=True)
    per_item = []
    for i, (cand, refs) in enumerate(zip(candidates, reference_sets)):
        per_item.append({
            "index": i,
            "bleu1": bleu_n([cand], [refs], 1),
            "rouge_l": rouge_l_sentence(cand, refs),
            "cider": cider_items[i],
        })
    return EvalReport(bleu=bleu,
                      rouge_l=rouge_l(candidates, reference_sets),
                      cider=cider_mean,
                      per_item=per_item)
