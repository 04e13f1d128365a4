"""Caption-pair similarity labeling.

Pipeline: greedy-matching BERTScore-style F1 between every caption pair,
min-max normalization over the off-diagonal entries, then thresholding into
a boolean similar / not-similar matrix. The F1 variant with no idf weighting
is used; cosine similarity is taken on raw encoder features.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np


class DegenerateSimilarityError(ValueError):
    """All off-diagonal scores equal; min-max normalization undefined."""


@dataclass
class TokenizedCaption:
    text: str
    token_ids: list[int]

    def __post_init__(self):
        if len(self.token_ids) < 1:
            raise ValueError(f"empty caption: {self.text!r}")


class TextEncoder(Protocol):
    """Maps a TokenizedCaption to a contextual embedding matrix (D_t, L)."""

    def encode(self, caption: TokenizedCaption) -> np.ndarray: ...


@dataclass
class SimilarityMatrix:
    scores: np.ndarray  # (n, n) float64
    normalized: bool = False

    @property
    def n(self) -> int:
        return self.scores.shape[0]


@dataclass
class SimilarLabelMatrix:
    labels: np.ndarray  # (n, n) bool; diagonal False
    threshold: float

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    def train_pools(self, i: int, train: np.ndarray):
        """(similar, dissimilar) positions in `train`, the ascending item
        positions of the training split, for item i; i is in neither."""
        other = train != i
        similar = self.labels[i, train]
        return (np.flatnonzero(other & similar),
                np.flatnonzero(other & ~similar))


def bertscore(cand: np.ndarray, ref: np.ndarray) -> tuple[float, float, float]:
    """Greedy-matching (precision, recall, f1) between two embedding
    matrices of shape (D_t, L_cand) and (D_t, L_ref)."""
    if cand.ndim != 2 or ref.ndim != 2 or cand.shape[1] < 1 or ref.shape[1] < 1:
        raise ValueError("embeddings must be (D_t, L) with L >= 1")
    cn = np.linalg.norm(cand, axis=0)
    rn = np.linalg.norm(ref, axis=0)
    if np.any(cn == 0) or np.any(rn == 0):
        raise ValueError("zero-norm embedding column")
    sim = (cand / cn).T @ (ref / rn)  # (L_cand, L_ref) cosine similarities
    precision = float(np.mean(sim.max(axis=1)))
    recall = float(np.mean(sim.max(axis=0)))
    denom = precision + recall
    f1 = 0.0 if denom == 0.0 else 2.0 * precision * recall / denom
    return precision, recall, f1


def pairwise_similarity(captions: list[TokenizedCaption],
                        encoder: TextEncoder) -> SimilarityMatrix:
    """Raw F1 BERTScore between all caption pairs; diagonal fixed at 1."""
    n = len(captions)
    if n < 2:
        raise ValueError("need at least two captions")
    embs = [encoder.encode(c) for c in captions]
    scores = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            _, _, f1 = bertscore(embs[i], embs[j])
            scores[i, j] = scores[j, i] = f1
    return SimilarityMatrix(scores, normalized=False)


def normalize_minmax(m: SimilarityMatrix) -> SimilarityMatrix:
    """Affine rescale of the off-diagonal entries onto [0, 1].

    The diagonal (self-similarity) is excluded from the statistics and left
    untouched; it is never a retrieval or sampling candidate."""
    off = ~np.eye(m.n, dtype=bool)
    vals = m.scores[off]
    lo, hi = vals.min(), vals.max()
    if hi == lo:
        raise DegenerateSimilarityError(
            "all off-diagonal similarities equal; cannot min-max normalize")
    out = m.scores.copy()
    out[off] = (vals - lo) / (hi - lo)
    return SimilarityMatrix(out, normalized=True)


def label_similar(m: SimilarityMatrix, threshold: float = 0.7) -> SimilarLabelMatrix:
    """Strictly-greater thresholding; the diagonal is labeled not-similar."""
    labels = m.scores > threshold
    np.fill_diagonal(labels, False)
    return SimilarLabelMatrix(labels, threshold)
