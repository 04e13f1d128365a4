"""Caption-pair similarity labeling.

Pipeline: greedy-matching BERTScore-style F1 between every caption pair,
min-max normalization over the off-diagonal entries, then thresholding into
a boolean similar / not-similar matrix. The F1 variant with no idf weighting
is used; cosine similarity is taken on raw encoder features.

The pairwise matrix stacks the captions of each token length once and
scores each caption against all later ones of a length in one broadcast
`bertscore` call, bit for bit as the call on each pair alone would; padding
to one length would change the last bits.
"""

from __future__ import annotations

import numpy as np

from .autodiff import ShapeError
from .errors import TrainingError


class DegenerateSimilarityError(ValueError):
    """All off-diagonal scores equal; min-max normalization undefined."""


def bertscore(cand: np.ndarray, ref: np.ndarray):
    """Greedy-matching (precision, recall, f1) between (..., D_t, L_cand)
    and (..., D_t, L_ref) embeddings, broadcast over the leading axes; two
    plain matrices give three floats."""
    if cand.ndim < 2 or ref.ndim < 2 or cand.shape[-1] < 1 or ref.shape[-1] < 1:
        raise ValueError("embeddings must be (..., D_t, L) with L >= 1")
    cn = np.linalg.norm(cand, axis=-2, keepdims=True)
    rn = np.linalg.norm(ref, axis=-2, keepdims=True)
    if np.any(cn == 0) or np.any(rn == 0):
        raise ValueError("zero-norm embedding column")
    sim = (cand / cn).swapaxes(-1, -2) @ (ref / rn)  # (..., L_c, L_r) cosines
    precision = sim.max(axis=-1).mean(axis=-1)
    recall = sim.max(axis=-2).mean(axis=-1)
    denom = precision + recall
    f1 = np.divide(2.0 * precision * recall, denom,
                   out=np.zeros_like(denom), where=denom != 0.0)
    if f1.ndim == 0:
        return float(precision), float(recall), float(f1)
    return precision, recall, f1


def pairwise_similarity(embs: list[np.ndarray]) -> np.ndarray:
    """Raw F1 BERTScore (n, n) between all pairs of the (D_t, L_i) caption
    embeddings, which must be C-contiguous; diagonal fixed at 1."""
    n = len(embs)
    if n < 2:
        raise ValueError("need at least two captions")
    lengths = np.array([e.shape[-1] for e in embs])
    groups = [(idx, np.stack([embs[j] for j in idx]))
              for idx in (np.flatnonzero(lengths == length)
                          for length in np.unique(lengths))]
    scores = np.eye(n)
    for i in range(n):
        for idx, stack in groups:
            later = np.searchsorted(idx, i, side="right")
            _, _, f1 = bertscore(embs[i], stack[later:])
            scores[i, idx[later:]] = scores[idx[later:], i] = f1
    return scores


def normalize_minmax(scores: np.ndarray) -> np.ndarray:
    """Affine rescale of the off-diagonal entries of the (n, n) scores onto
    [0, 1].

    The diagonal (self-similarity) is excluded from the statistics and left
    untouched; it is never a retrieval or sampling candidate."""
    off = ~np.eye(scores.shape[0], dtype=bool)
    vals = scores[off]
    lo, hi = vals.min(), vals.max()
    if hi == lo:
        raise DegenerateSimilarityError(
            "all off-diagonal similarities equal; cannot min-max normalize")
    out = scores.copy()
    out[off] = (vals - lo) / (hi - lo)
    return out


def label_similar(scores: np.ndarray, threshold: float) -> np.ndarray:
    """The (n, n) bool labels: strictly-greater thresholding of the (n, n)
    scores; the diagonal is labeled not-similar."""
    labels = scores > threshold
    np.fill_diagonal(labels, False)
    return labels


def train_pools(labels: np.ndarray, i: int, train: np.ndarray):
    """(similar, dissimilar) positions in `train`, the ascending item
    positions of the training split, for item i of the (n, n) bool
    `labels`; i is in neither."""
    other = train != i
    similar = labels[i, train]
    return (np.flatnonzero(other & similar),
            np.flatnonzero(other & ~similar))


def training_pools(items, labels: np.ndarray):
    """(train, valid, pools) for training on `items` (anything with a
    `split`) against their (n, n) bool `labels`: the ascending positions of
    the training split as an array and of the validation split as a list,
    and the train_pools of every item of either split, by position."""
    if len(labels) != len(items):
        raise ShapeError("label matrix size does not match item count")
    train = [i for i, it in enumerate(items) if it.split == "train"]
    valid = [i for i, it in enumerate(items) if it.split == "valid"]
    if not train:
        raise TrainingError("no training items")
    train_pos = np.array(train)
    return train_pos, valid, {i: train_pools(labels, i, train_pos)
                              for i in train + valid}
