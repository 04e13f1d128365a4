"""Corpus-level caption evaluation: BLEU-1..4, ROUGE-L, and CIDEr-D.

Candidates and references go through the same normalization: lowercase,
punctuation stripped, whitespace split. BLEU is corpus-level (clipped n-gram
precision, geometric mean, brevity penalty); ROUGE-L is the LCS F-measure
with beta = 1.2 averaged over the corpus; CIDEr-D uses tf-idf n-gram cosine
similarity with a length-gaussian penalty (sigma = 6) and x10 scaling.

Each distinct text of a call, candidate or reference, is normalized and its
1- to 4-gram counts taken once, and every score is computed from those
counts: BLEU's clipped matches as a multiset intersection with the union of
the references, ROUGE-L's LCS by a bit-parallel algorithm, and CIDEr-D's
idf once per n-gram and tf-idf vector and norm once per distinct text. Each
score keeps the arithmetic, and the order of every float sum, of the
straightforward per-pair definitions, so it equals them bit for bit.
"""

from __future__ import annotations

import json
import logging
import math
import string
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain
from operator import or_
from typing import NamedTuple

log = logging.getLogger("ragcap.metrics")

_PUNCT_TABLE = str.maketrans("", "", string.punctuation)

ROUGE_BETA = 1.2
CIDER_SIGMA = 6.0
MAX_N = 4  # highest n-gram order of BLEU and CIDEr-D


def normalize_words(text: str) -> list[str]:
    """Lowercase, strip punctuation, split on whitespace."""
    return text.lower().translate(_PUNCT_TABLE).split()


class _Sentence(NamedTuple):
    words: list[str]
    counts: list[Counter]  # counts[k - 1]: k-gram counts for k = 1..MAX_N


def _sentence(text: str) -> _Sentence:
    """Normalize once, count the 1- to MAX_N-grams once; each Counter holds
    its n-grams in first-seen order."""
    words = normalize_words(text)
    return _Sentence(words, [Counter(zip(*(words[i:] for i in range(k))))
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
        # each n-gram clipped to its highest count in any one reference
        most = reduce(or_, (r.counts[k] for r in refs))
        matched.append(sum((cc & most).values()))
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
    """Length of the longest common subsequence, by the bit-parallel
    algorithm of Hyyro (2004) over Python ints. After each word of `a`,
    bit j of `v` is 0 where the LCS of the words read so far with
    b[:j + 1] exceeds that with b[:j], so the LCS is the count of 0 bits."""
    masks: dict[str, int] = {}
    for j, w in enumerate(b):
        masks[w] = masks.get(w, 0) | 1 << j
    full = (1 << len(b)) - 1
    v = full
    for w in a:
        u = v & masks.get(w, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


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

def _cider_items(candidates: list[str], reference_sets: list[list[str]],
                 sentences: dict[str, _Sentence]) -> list[float]:
    """Per-item CIDEr-D (document frequencies from the references) of the
    texts whose counts `sentences` holds."""
    n_items = len(candidates)
    if n_items < 2:
        raise ValueError("CIDEr needs a corpus of size >= 2 for idf")
    doc_freq = Counter(g for rs in reference_sets
                       for g in {g for r in rs
                                 for counts in sentences[r].counts
                                 for g in counts})
    log_n = math.log(float(n_items))
    # an n-gram no reference holds has document frequency 0, idf log_n
    idf = {g: log_n - math.log(max(1.0, df)) for g, df in doc_freq.items()}
    # per distinct text: per-order tf-idf vectors and their norms
    tfidf = {}
    for text, sent in sentences.items():
        vecs = [{g: c * idf.get(g, log_n) for g, c in counts.items()}
                for counts in sent.counts]
        tfidf[text] = vecs, [math.sqrt(sum(v * v for v in vec.values()))
                             for vec in vecs]

    per_item = []
    for cand, rs in zip(candidates, reference_sets):
        cvecs, cnorms = tfidf[cand]
        clen = len(sentences[cand].words)
        score_n = [0.0] * MAX_N
        for r in rs:
            rvecs, rnorms = tfidf[r]
            rlen = len(sentences[r].words)
            penalty = math.exp(-((clen - rlen) ** 2) / (2.0 * CIDER_SIGMA ** 2))
            for k in range(MAX_N):
                # an n-gram the reference lacks would add 0.0 to the sum
                rv = rvecs[k]
                val = sum(min(v, rv[g]) * rv[g]
                          for g, v in cvecs[k].items() if g in rv)
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
    """Every score from one pass over the corpus: each distinct text is
    normalized and its n-grams counted once."""
    if not candidates:
        raise ValueError("empty corpus")
    if len(candidates) != len(reference_sets):
        raise ValueError("candidate/reference count mismatch: "
                         f"{len(candidates)} vs {len(reference_sets)}")
    if any(not rs for rs in reference_sets):
        raise ValueError("every candidate needs at least one reference")
    sentences = {t: _sentence(t)
                 for t in dict.fromkeys(chain(candidates, *reference_sets))}
    cands = [sentences[c] for c in candidates]
    refs = [[sentences[r] for r in rs] for rs in reference_sets]
    for i, cand in enumerate(cands):
        if not cand.words:
            log.warning("candidate %d is empty after normalization", i)
    stats = list(map(_bleu_stats, cands, refs))
    corpus = _corpus_stats(stats)
    rouge_items = list(map(_rouge_l, cands, refs))
    cider_items = _cider_items(candidates, reference_sets, sentences)
    per_item = [{"index": i, "bleu1": _bleu(*s, 1), "rouge_l": r, "cider": c}
                for i, (s, r, c) in enumerate(zip(stats, rouge_items,
                                                  cider_items))]
    return EvalReport(bleu=[_bleu(*corpus, n) for n in range(1, MAX_N + 1)],
                      rouge_l=sum(rouge_items) / len(rouge_items),
                      cider=sum(cider_items) / len(cider_items),
                      per_item=per_item)
