"""Audio-based guidance caption retrieval.

A single trainable Transformer-encoder layer embeds each (D_a, T) audio
feature matrix into a unit-norm vector of dimension D_a*T. The embedder is
trained with triplet loss against the caption-similarity labels, negatives
chosen by semi-hard mining; retrieval is brute-force top-K by squared l2
distance over the training items.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from . import archive
from .autodiff import ShapeError, Tensor
from .config import PipelineConfig
from .data import DatasetItem
from .errors import NumericError, SamplingError, TrainingError
from .layers import Adam, EncoderLayer, ParamContainer, dropout
from .similarity import SimilarLabelMatrix

log = logging.getLogger("ragcap.retrieval")


class EmbedderParams(ParamContainer):
    """One encoder layer over the T time steps plus input dropout."""

    def __init__(self, cfg: PipelineConfig, rng: np.random.Generator):
        self.d_a = cfg.model_d_a
        self.t = cfg.model_t
        self.dropout = cfg.embed_dropout
        self.layer = EncoderLayer(cfg.model_d_a, cfg.embed_heads, cfg.embed_ff,
                                  rng, cfg.init_std)

    def named_params(self, prefix: str = "embedder."):
        return self.layer.named_params(prefix + "layer.")


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
    x = dropout(x, params.dropout, rng, training)
    h = params.layer(x)
    e = h.reshape((phis.shape[0], params.d_a * params.t))
    norm = (e * e).sum(axis=-1, keepdims=True) ** 0.5
    return e / norm


def embed(params: EmbedderParams, phi: np.ndarray) -> np.ndarray:
    """Evaluation-mode embedding of one (D_a, T) feature matrix."""
    if phi.ndim != 2:
        raise ShapeError(f"expected (D_a, T), got {phi.shape}")
    return embed_batch(params, phi[None]).data[0].copy()


def sq_l2(a: np.ndarray, b: np.ndarray) -> float:
    """Squared Euclidean distance (the published distance squares)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"dim mismatch: {a.shape} vs {b.shape}")
    d = a - b
    return float(d @ d)


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

def semi_hard_set(d_ap: float, negatives: list[tuple], alpha: float) -> list:
    """Negatives with d_ap <= d_an < d_ap + alpha (half-open interval)."""
    return [(nid, d) for nid, d in negatives if d_ap <= d < d_ap + alpha]


def select_semi_hard_negative(d_ap: float, negatives: list[tuple],
                              alpha: float,
                              rng: np.random.Generator) -> tuple:
    """Pick a negative id. Uniform over the semi-hard set when nonempty;
    otherwise the nearest negative not closer than the positive, else the
    farthest negative. Returns (id, distance, fallback_kind)."""
    if not negatives:
        raise SamplingError("empty negative pool")
    pool = semi_hard_set(d_ap, negatives, alpha)
    if pool:
        nid, d = pool[int(rng.integers(0, len(pool)))]
        return nid, d, "none"
    geq = [(d, nid) for nid, d in negatives if d >= d_ap]
    if geq:
        d, nid = min(geq)
        return nid, d, "nearest_geq"
    d, nid = max((d, nid) for nid, d in negatives)
    return nid, d, "farthest"


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class NegativeSelection:
    anchor_id: str
    negative_id: str
    d_ap: float
    d_an: float
    margin: float
    semi_hard_available: bool
    fallback: str


@dataclass
class RetrievalTrainResult:
    params: EmbedderParams
    history: list[dict] = field(default_factory=list)
    negative_log: list[NegativeSelection] = field(default_factory=list)
    skipped_anchors: int = 0
    best_epoch: int = -1
    best_val_loss: float = float("inf")


def train_retrieval(items: list[DatasetItem], labels: SimilarLabelMatrix,
                    cfg: PipelineConfig, seed: int) -> RetrievalTrainResult:
    """Triplet training of the embedder; keeps the best-validation weights.

    `labels` is indexed by position in `items` (all splits); anchors,
    positives, and negatives are drawn from the train split, validation
    anchors from the valid split with fixed seeded triplets."""
    if labels.n != len(items):
        raise ShapeError("label matrix size does not match item count")
    train_idx = [i for i, it in enumerate(items) if it.split == "train"]
    valid_idx = [i for i, it in enumerate(items) if it.split == "valid"]
    if not train_idx:
        raise TrainingError("no training items")

    params = EmbedderParams(cfg, np.random.default_rng([seed, 1]))
    opt = Adam([p for _, p in params.named_params()], lr=cfg.triplet_lr)
    rng_sample = np.random.default_rng([seed, 2])
    rng_drop = np.random.default_rng([seed, 3])

    seqs = np.stack([it.features for it in items])  # (n, D_a, T)
    train_pos = {i: [j for j in train_idx if j != i and labels.labels[i, j]]
                 for i in train_idx + valid_idx}
    train_neg = {i: [j for j in train_idx if j != i and not labels.labels[i, j]]
                 for i in train_idx + valid_idx}

    # fixed seeded validation triplets
    rng_val = np.random.default_rng([seed, 4])
    val_triplets = []
    for a in valid_idx:
        if train_pos[a] and train_neg[a]:
            p = int(rng_val.choice(train_pos[a]))
            n = int(rng_val.choice(train_neg[a]))
            val_triplets.append((a, p, n))

    result = RetrievalTrainResult(params=params)
    best = params.snapshot()

    for epoch in range(cfg.triplet_epochs):
        # offline mining distances from the epoch-start embeddings
        emb_all = embed_batch(params, seqs[train_idx]).data
        pos_of = {a: row for a, row in zip(train_idx, emb_all)}

        order = rng_sample.permutation(len(train_idx))
        anchors = [train_idx[k] for k in order]
        epoch_losses = []
        for start in range(0, len(anchors), cfg.triplet_batch):
            batch = anchors[start:start + cfg.triplet_batch]
            tri = []
            for a in batch:
                if not train_pos[a]:
                    result.skipped_anchors += 1
                    continue
                if not train_neg[a]:
                    result.skipped_anchors += 1
                    continue
                p = int(rng_sample.choice(train_pos[a]))
                d_ap = sq_l2(pos_of[a], pos_of[p])
                neg_dists = [(j, sq_l2(pos_of[a], pos_of[j]))
                             for j in train_neg[a]]
                available = bool(semi_hard_set(d_ap, neg_dists,
                                               cfg.triplet_margin))
                n, d_an, fallback = select_semi_hard_negative(
                    d_ap, neg_dists, cfg.triplet_margin, rng_sample)
                result.negative_log.append(NegativeSelection(
                    items[a].id, items[n].id, d_ap, d_an, cfg.triplet_margin,
                    available, fallback))
                tri.append((a, p, n))
            if not tri:
                continue
            ai, pi, ni = (np.array(cols) for cols in zip(*tri))
            stacked = np.concatenate([seqs[ai], seqs[pi], seqs[ni]])
            e = embed_batch(params, stacked, rng_drop, training=True)
            b = len(tri)
            loss = triplet_loss(e[:b], e[b:2 * b], e[2 * b:],
                                cfg.triplet_margin).mean()
            if not np.isfinite(loss.data):
                raise NumericError(f"non-finite triplet loss at epoch {epoch}")
            loss.backward()
            opt.step()
            opt.zero_grad()
            epoch_losses.append(loss.item())

        if not epoch_losses and epoch == 0:
            raise TrainingError("all anchors were skipped; nothing to train")
        train_loss = float(np.mean(epoch_losses)) if epoch_losses else 0.0

        if val_triplets:
            av, pv, nv = (np.array(cols) for cols in zip(*val_triplets))
            ev = embed_batch(params, np.concatenate(
                [seqs[av], seqs[pv], seqs[nv]])).data
            m = len(val_triplets)
            val_loss = float(triplet_loss(ev[:m], ev[m:2 * m], ev[2 * m:],
                                          cfg.triplet_margin).mean().data)
        else:
            val_loss = train_loss

        result.history.append({"epoch": epoch, "train_loss": train_loss,
                               "val_loss": val_loss, "lr": cfg.triplet_lr})
        if val_loss < result.best_val_loss:
            result.best_val_loss = val_loss
            result.best_epoch = epoch
            best = params.snapshot()

    if result.skipped_anchors:
        log.info("skipped %d anchors with empty positive or negative pools",
                 result.skipped_anchors)
    params.restore(best)
    return result


# ---------------------------------------------------------------------------
# index
# ---------------------------------------------------------------------------

@dataclass
class RetrievalIndex:
    ids: list[str]
    embeddings: np.ndarray  # (n, D_a*T), unit-norm rows
    captions: list[list[str]]

    def save(self, path: str):
        archive.write_archive(path, {"embeddings": self.embeddings})
        sidecar = json.dumps({"ids": self.ids, "captions": self.captions},
                             sort_keys=True)
        archive.atomic_write_bytes(path + ".json", sidecar.encode("utf-8"))

    @classmethod
    def load(cls, path: str) -> "RetrievalIndex":
        emb = archive.read_archive(path)["embeddings"]
        with open(path + ".json", "r", encoding="utf-8") as f:
            side = json.load(f)
        return cls(side["ids"], emb, side["captions"])


def build_index(params: EmbedderParams,
                items: list[DatasetItem]) -> RetrievalIndex:
    """Embed every training item (evaluation mode, one at a time)."""
    train = [it for it in items if it.split == "train"]
    if not train:
        raise TrainingError("empty dataset: no training items to index")
    rows = [embed(params, it.features) for it in train]
    return RetrievalIndex([it.id for it in train], np.stack(rows),
                          [it.captions for it in train])


def retrieve_topk(index: RetrievalIndex, query: np.ndarray, k: int = 5,
                  exclude: str | None = None) -> list[tuple]:
    """Top-K (id, distance, caption) by ascending squared l2 distance,
    ties broken by ascending id. `exclude` drops the query's own item."""
    candidates = [(sq_l2(index.embeddings[i], query), index.ids[i],
                   index.captions[i][0])
                  for i in range(len(index.ids))
                  if index.ids[i] != exclude]
    if k < 1 or k > len(candidates):
        raise ValueError(f"k={k} out of range for index of "
                         f"{len(candidates)} usable items")
    candidates.sort(key=lambda c: (c[0], c[1]))
    return [(cid, d, cap) for d, cid, cap in candidates[:k]]
