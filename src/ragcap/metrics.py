"""Corpus-level caption evaluation: BLEU-1..4, ROUGE-L, and CIDEr-D.

Candidates and references go through the same normalization: lowercase,
punctuation stripped, whitespace split. BLEU is corpus-level (clipped n-gram
precision, geometric mean, brevity penalty); ROUGE-L is the LCS F-measure
with beta = 1.2 averaged over the corpus; CIDEr-D uses tf-idf n-gram cosine
similarity with a length-gaussian penalty (sigma = 6) and x10 scaling.

Each sentence is normalized and its 1- to 4-gram counts are taken once per
call; every score is computed from those counts.
"""

from __future__ import annotations

import json
import logging
import math
import string
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

log = logging.getLogger("ragcap.metrics")

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)

ROUGE_BETA = 1.2
CIDER_SIGMA = 6.0
MAX_N = 4  # highest n-gram order of BLEU and CIDEr-D


def normalize_words(text: str) -> list[str]:
    """Lowercase, strip punctuation, split on whitespace."""
    return text.lower().translate(_PUNCT_TABLE).split()


def _ngram_counts(words: list[str], n: int) -> Counter:
    return Counter(tuple(words[i:i + n]) for i in range(len(words) - n + 1))


class _Sentence(NamedTuple):
    words: list[str]
    counts: list[Counter]  # counts[k - 1]: k-gram counts for k = 1..MAX_N


def _sentence(text: str) -> _Sentence:
    """Normalize once, count the 1- to MAX_N-grams once."""
    words = normalize_words(text)
    return _Sentence(words, [_ngram_counts(words, k)
                             for k in range(1, MAX_N + 1)])


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------

def brevity_penalty(cand_len: int, ref_len: int) -> float:
    if cand_len == 0:
        return 0.0
    if cand_len >= ref_len:
        return 1.0
    return math.exp(1.0 - ref_len / cand_len)


def _bleu_stats(cand: _Sentence, refs: list[_Sentence]) -> tuple:
    """(clipped matches per order, totals per order, candidate length,
    closest reference length with ties -> shorter) for one item."""
    n_c = len(cand.words)
    ref_len = min((abs(len(r.words) - n_c), len(r.words)) for r in refs)[1]
    matched, total = [], []
    for k, cc in enumerate(cand.counts):
        matched.append(sum(min(c, max(r.counts[k][g] for r in refs))
                           for g, c in cc.items()))
        total.append(sum(cc.values()))
    return matched, total, n_c, ref_len


def _corpus_stats(stats: list[tuple]) -> tuple:
    """The per-item _bleu_stats summed over the corpus."""
    matched, total, cand_len, ref_len = zip(*stats)
    return ([sum(col) for col in zip(*matched)],
            [sum(col) for col in zip(*total)], sum(cand_len), sum(ref_len))


def _bleu(matched: list[int], total: list[int], cand_len: int, ref_len: int,
          n: int) -> float:
    """Geometric mean of the clipped precisions of orders 1..n times the
    brevity penalty."""
    matched, total = matched[:n], total[:n]
    if any(t == 0 for t in total) or any(m == 0 for m in matched):
        return 0.0
    log_prec = sum(math.log(m / t) for m, t in zip(matched, total)) / n
    return brevity_penalty(cand_len, ref_len) * math.exp(log_prec)


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


def _rouge_l(cand: _Sentence, refs: list[_Sentence]) -> float:
    """Max over the references of the LCS F-measure."""
    best = 0.0
    b2 = ROUGE_BETA ** 2
    for r in refs:
        lcs = _lcs_length(cand.words, r.words)
        if lcs == 0:
            continue
        prec = lcs / len(cand.words)
        rec = lcs / len(r.words)
        f = (1 + b2) * prec * rec / (rec + b2 * prec)
        best = max(best, f)
    return best


# ---------------------------------------------------------------------------
# CIDEr-D
# ---------------------------------------------------------------------------

def _cider_vec(s: _Sentence, doc_freq: dict, log_n: float):
    """Per-order tf-idf vectors, their norms, and the sentence length."""
    vecs = [defaultdict(float) for _ in range(MAX_N)]
    norms = [0.0] * MAX_N
    for k, counts in enumerate(s.counts):
        for g, c in counts.items():
            idf = log_n - math.log(max(1.0, doc_freq[g]))
            vecs[k][g] = c * idf
        norms[k] = math.sqrt(sum(v * v for v in vecs[k].values()))
    return vecs, norms, len(s.words)


def _cider_items(cands: list[_Sentence],
                 refs: list[list[_Sentence]]) -> list[float]:
    """Per-item CIDEr-D (document frequencies from the references)."""
    n_items = len(cands)
    if n_items < 2:
        raise ValueError("CIDEr needs a corpus of size >= 2 for idf")
    doc_freq: dict = defaultdict(float)
    for rs in refs:
        seen = set()
        for r in rs:
            for counts in r.counts:
                seen.update(counts)
        for g in seen:
            doc_freq[g] += 1.0
    log_n = math.log(float(n_items))

    per_item = []
    for cand, rs in zip(cands, refs):
        cvecs, cnorms, clen = _cider_vec(cand, doc_freq, log_n)
        score_n = [0.0] * MAX_N
        for r in rs:
            rvecs, rnorms, rlen = _cider_vec(r, doc_freq, log_n)
            penalty = math.exp(-((clen - rlen) ** 2) / (2.0 * CIDER_SIGMA ** 2))
            for k in range(MAX_N):
                val = sum(min(cvecs[k][g], rvecs[k][g]) * rvecs[k][g]
                          for g in cvecs[k])
                if cnorms[k] > 0 and rnorms[k] > 0:
                    score_n[k] += penalty * val / (cnorms[k] * rnorms[k])
        per_item.append(10.0 * sum(s / len(rs) for s in score_n) / MAX_N)
    return per_item


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


def evaluate_corpus(candidates: list[str],
                    reference_sets: list[list[str]]) -> EvalReport:
    """Every score from one pass over the corpus: each sentence is
    normalized and its n-grams counted once."""
    if not candidates:
        raise ValueError("empty corpus")
    if len(candidates) != len(reference_sets):
        raise ValueError("candidate/reference count mismatch: "
                         f"{len(candidates)} vs {len(reference_sets)}")
    if any(not rs for rs in reference_sets):
        raise ValueError("every candidate needs at least one reference")
    cands = [_sentence(c) for c in candidates]
    refs = [[_sentence(r) for r in rs] for rs in reference_sets]
    for i, cand in enumerate(cands):
        if not cand.words:
            log.warning("candidate %d is empty after normalization", i)
    stats = list(map(_bleu_stats, cands, refs))
    corpus = _corpus_stats(stats)
    rouge_items = list(map(_rouge_l, cands, refs))
    cider_items = _cider_items(cands, refs)
    per_item = [{"index": i, "bleu1": _bleu(*s, 1), "rouge_l": r, "cider": c}
                for i, (s, r, c) in enumerate(zip(stats, rouge_items,
                                                  cider_items))]
    return EvalReport(bleu=[_bleu(*corpus, n) for n in range(1, MAX_N + 1)],
                      rouge_l=sum(rouge_items) / len(rouge_items),
                      cider=sum(cider_items) / len(cider_items),
                      per_item=per_item)
