"""Audio-based guidance caption retrieval.

A single trainable Transformer-encoder layer embeds each (D_a, T) audio
feature matrix into a unit-norm vector of dimension D_a*T. The embedder is
trained with triplet loss against the caption-similarity labels, negatives
chosen by semi-hard mining; retrieval is brute-force top-K by squared l2
distance over the training items, for a batch of queries at once.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .autodiff import ShapeError, Tensor
from .config import PipelineConfig
from .data import DatasetItem
from .errors import SamplingError, TrainingError
from .layers import (Adam, EncoderLayer, ParamContainer, best_of_epochs,
                     dropout_keep)
from .similarity import training_pools

log = logging.getLogger("ragcap.retrieval")


class EmbedderParams(ParamContainer):
    """One encoder layer over the T time steps plus input dropout."""

    prefix = "embedder."
    KEYS = ("model.D_a", "model.T", "embed.heads", "embed.ff", "embed.dropout")

    def __init__(self, cfg: PipelineConfig, rng: np.random.Generator):
        self.d_a = cfg.model_d_a
        self.t = cfg.model_t
        self.dropout = cfg.embed_dropout
        self.layer = EncoderLayer(cfg.model_d_a, cfg.embed_heads, cfg.embed_ff,
                                  rng)


def embed_batch(params: EmbedderParams, phis: np.ndarray,
                rng: np.random.Generator | None = None,
                training: bool = False) -> Tensor:
    """Embed a stack of feature matrices.

    phis has shape (B, D_a, T); returns a Tensor of unit-norm rows
    (B, D_a*T). Dropout is applied before the encoder layer only when
    training."""
    if phis.ndim != 3 or phis.shape[1] != params.d_a or phis.shape[2] != params.t:
        raise ShapeError(f"expected (B, {params.d_a}, {params.t}), "
                         f"got {phis.shape}")
    x = Tensor(np.swapaxes(phis, 1, 2))  # (B, T, D_a): sequence over time
    if training and params.dropout > 0.0:
        [keep] = dropout_keep(np.ones(x.shape[:2], dtype=bool),
                              (params.d_a,), params.dropout, rng)
        x = x * keep
    h = params.layer(x)
    e = h.reshape((phis.shape[0], params.d_a * params.t))
    norm = (e * e).sum(axis=-1, keepdims=True) ** 0.5
    return e / norm


def sq_l2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance (the published distance squares) from a
    (D,) to each row of b (..., D). Each row is one dot product, so every
    value equals the scalar (a - b_i) @ (a - b_i) bit for bit."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.shape[-1:] != a.shape:
        raise ShapeError(f"dim mismatch: {a.shape} vs {b.shape}")
    d = a - b
    return (d[..., None, :] @ d[..., :, None])[..., 0, 0]


def triplet_loss(e_a, e_p, e_n, alpha: float) -> Tensor:
    """max(0, D(a,p) - D(a,n) + alpha) per triplet; hinge subgradient is 0
    at the boundary. Inputs are (..., D) Tensors or arrays."""
    e_a, e_p, e_n = (x if isinstance(x, Tensor) else Tensor(x)
                     for x in (e_a, e_p, e_n))
    d_ap = ((e_a - e_p) ** 2.0).sum(axis=-1)
    d_an = ((e_a - e_n) ** 2.0).sum(axis=-1)
    return (d_ap - d_an + alpha).relu()


# ---------------------------------------------------------------------------
# semi-hard negative mining
# ---------------------------------------------------------------------------

def select_semi_hard_negative(d_ap: float, neg_ids: np.ndarray,
                              neg_d: np.ndarray, alpha: float,
                              rng: np.random.Generator) -> tuple:
    """Pick a negative from integer ids and their distances. Uniform over
    the semi-hard set d_ap <= d_an < d_ap + alpha (half-open) when it is
    nonempty; otherwise the nearest negative not closer than the positive
    (lowest id on ties), else the farthest negative (highest id on ties).
    Returns (id, distance, fallback_kind)."""
    if len(neg_ids) == 0:
        raise SamplingError("empty negative pool")
    pool = np.flatnonzero((neg_d >= d_ap) & (neg_d < d_ap + alpha))
    if len(pool):
        k = pool[int(rng.integers(0, len(pool)))]
        return int(neg_ids[k]), float(neg_d[k]), "none"
    geq = neg_d >= d_ap
    if geq.any():
        d = neg_d[geq].min()
        return int(neg_ids[geq & (neg_d == d)].min()), float(d), "nearest_geq"
    d = neg_d.max()
    return int(neg_ids[neg_d == d].max()), float(d), "farthest"


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class NegativeSelection:
    anchor_id: str
    negative_id: str
    d_ap: float
    d_an: float
    fallback: str  # "none" when the semi-hard set was nonempty


@dataclass
class RetrievalTrainResult:
    params: EmbedderParams
    history: list[dict] = field(default_factory=list)
    negative_log: list[NegativeSelection] = field(default_factory=list)
    skipped_anchors: int = 0
    best_epoch: int = -1
    best_val_loss: float = float("inf")


def train_retrieval(items: list[DatasetItem], labels: np.ndarray,
                    cfg: PipelineConfig, seed: int) -> RetrievalTrainResult:
    """Triplet training of the embedder; keeps the best-validation weights.

    `labels`, the (n, n) bool similar-caption matrix, is indexed by
    position in `items` (all splits); anchors, positives, and negatives are
    drawn from the train split, validation anchors from the valid split
    with fixed seeded triplets."""
    train, valid, pools = training_pools(items, labels)
    params = EmbedderParams(cfg, np.random.default_rng([seed, 1]))
    opt = Adam(params)
    rng_sample = np.random.default_rng([seed, 2])
    rng_drop = np.random.default_rng([seed, 3])
    seqs = np.stack([it.features for it in items])  # (n, D_a, T)

    # fixed seeded validation triplets
    rng_val = np.random.default_rng([seed, 4])
    val_triplets = []
    for a in valid:
        pos, neg = pools[a]
        if len(pos) and len(neg):
            p = train[int(rng_val.choice(pos))]
            n = train[int(rng_val.choice(neg))]
            val_triplets.append((a, p, n))

    def batch_loss(triplets: list[tuple], training: bool) -> Tensor:
        """Mean triplet loss over (anchor, positive, negative) positions."""
        e = embed_batch(params, seqs[np.array(triplets).T.ravel()], rng_drop,
                        training)
        b = len(triplets)
        return triplet_loss(e[:b], e[b:2 * b], e[2 * b:],
                            cfg.triplet_margin).mean()

    result = RetrievalTrainResult(params=params)

    def run_epoch(epoch: int):
        # offline mining distances from the epoch-start embeddings
        emb = embed_batch(params, seqs[train]).data  # rows in train order
        order = rng_sample.permutation(len(train))
        losses = []
        for start in range(0, len(order), cfg.triplet_batch):
            tri = []
            for a in order[start:start + cfg.triplet_batch]:
                pos, neg = pools[train[a]]
                if not len(pos) or not len(neg):
                    result.skipped_anchors += 1
                    continue
                p = int(rng_sample.choice(pos))
                d = sq_l2(emb[a], emb)
                d_ap = float(d[p])
                n, d_an, fallback = select_semi_hard_negative(
                    d_ap, neg, d[neg], cfg.triplet_margin, rng_sample)
                result.negative_log.append(NegativeSelection(
                    items[train[a]].id, items[train[n]].id, d_ap, d_an,
                    fallback))
                tri.append((train[a], train[p], train[n]))
            if tri:
                losses.append(opt.minimize(
                    [lambda: batch_loss(tri, training=True)],
                    f"triplet loss at epoch {epoch}", cfg.triplet_lr))
        return cfg.triplet_lr, losses

    def val_loss():
        return (float(batch_loss(val_triplets, training=False).data)
                if val_triplets else None)

    result.history, result.best_epoch, result.best_val_loss = best_of_epochs(
        opt, cfg.triplet_epochs, run_epoch, val_loss)
    if result.skipped_anchors:
        log.info("skipped %d anchors with empty positive or negative pools",
                 result.skipped_anchors)
    return result


# ---------------------------------------------------------------------------
# index
# ---------------------------------------------------------------------------

@dataclass
class RetrievalIndex:
    ids: list[str]
    embeddings: np.ndarray  # (n, D_a*T), unit-norm rows
    captions: list[list[str]]

    @cached_property
    def by_id(self) -> np.ndarray:
        """Row positions in ascending-id order."""
        return np.array(sorted(range(len(self.ids)), key=self.ids.__getitem__),
                         dtype=np.intp)

    @cached_property
    def rows_of(self) -> dict[str, list[int]]:
        """The row positions of each id."""
        rows: dict[str, list[int]] = {}
        for i, item_id in enumerate(self.ids):
            rows.setdefault(item_id, []).append(i)
        return rows


def build_index(params: EmbedderParams,
                items: list[DatasetItem]) -> RetrievalIndex:
    """Embed every training item in one evaluation-mode batch."""
    train = [it for it in items if it.split == "train"]
    if not train:
        raise TrainingError("empty dataset: no training items to index")
    rows = embed_batch(params, np.stack([it.features for it in train])).data
    return RetrievalIndex([it.id for it in train], rows,
                          [it.captions for it in train])


def retrieve_topk(index: RetrievalIndex, queries: np.ndarray, k: int,
                  excludes: list[str | None]) -> list[list[tuple]]:
    """For each row of the (N, D) queries, its top-K (id, distance, caption)
    by ascending squared l2 distance, ties broken by ascending id.
    excludes[n], unless None, is an id whose rows query n skips (its own
    item). Each query's distances come from one sq_l2 call, and one stable
    argsort ranks all N rows of distances at once."""
    d = np.empty((len(queries), len(index.ids)))
    for n, query in enumerate(queries):
        d[n] = sq_l2(query, index.embeddings)
    rows = index.by_id
    # a stable sort by distance of the rows in id order keeps ties by id
    order = rows[np.argsort(d[:, rows], axis=1, kind="stable")]
    out = []
    for dist, ranked, exclude in zip(d, order, excludes, strict=True):
        skip = index.rows_of.get(exclude, [])
        usable = len(rows) - len(skip)
        if k < 1 or k > usable:
            raise ValueError(f"k={k} out of range for index of "
                             f"{usable} usable items")
        # the first k + len(skip) ranked rows hold the top k unskipped ones
        top = [i for i in ranked[:k + len(skip)].tolist() if i not in skip]
        out.append([(index.ids[i], float(dist[i]), index.captions[i][0])
                    for i in top[:k]])
    return out
