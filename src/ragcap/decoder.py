"""Caption generation with a frozen causal LM and trainable fusion attention.

The frozen LM turns the SEP-joined guidance captions and the running
hypothesis prefix into feature matrices. A trainable cross-attention layer
fuses hypothesis features (queries) with guidance features (keys/values);
a second, dimension-reduced cross-attention path folds in the audio feature
sequence. The sum of both paths feeds a trainable token-prediction head.
Training is teacher-forced label-smoothed cross-entropy; generation is
length-normalized beam search over any scoring step; the fusion step
encodes all guidance once and makes one posterior call per beam step.

The fusion forward reads frozen-LM features, never token ids through the
LM: each caller encodes its rows once, where it forms its batch. Batches of
token ids are right-padded with PAD, which the tokenizer never emits:
`guidance == PAD` masks fusion keys and `targets != PAD` masks the loss.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ShapeError, Tensor
from .config import PipelineConfig
from .data import DatasetItem
from .errors import TrainingError
from .layers import (NEG_INF, Adam, Linear, MultiHeadAttention,
                     ParamContainer, best_of_epochs, cosine_lr, dropout_keep)
from .reference_models import BOS, EOS, PAD, SEP, TinyCausalLm, TinyTokenizer
from .similarity import training_pools

log = logging.getLogger("ragcap.decoder")


def guidance_ids(captions: list[list[int]]) -> list[int]:
    """K guidance caption token sequences joined with SEP."""
    if not captions or any(len(c) == 0 for c in captions):
        raise ValueError("guidance captions must be nonempty")
    tokens = list(captions[0])
    for cap in captions[1:]:
        tokens += [SEP, *cap]
    return tokens


def pad_ids(seqs: list[list[int]]) -> np.ndarray:
    """Token sequences right-padded with PAD into one (len(seqs), L) array."""
    out = np.full((len(seqs), max(map(len, seqs), default=0)), PAD,
                  dtype=np.int64)
    for row, seq in zip(out, seqs):
        row[:len(seq)] = seq
    return out


class DecoderParams(ParamContainer):
    """Trainable fusion blocks around the frozen LM `lm`, at the widths of
    `lm` and of the decoder.* and model.D_a config keys. The token head
    starts as the LM's own head with a zero bias."""

    prefix = "decoder."
    # the widths of the frozen LM are checked by its own keys
    KEYS = ("model.D_a", "decoder.D_r", "decoder.heads", "decoder.dropout")

    def __init__(self, cfg: PipelineConfig, lm: TinyCausalLm,
                 rng: np.random.Generator):
        self.d_l = d_l = lm.d_model
        self.d_r = d_r = cfg.decoder_d_r
        self.dropout = cfg.decoder_dropout
        heads = cfg.decoder_heads
        self.fuse_mha = MultiHeadAttention(heads, d_l, d_l, d_l, rng)
        self.reduce_hyp = Linear(d_l, d_r, rng)
        self.reduce_audio = Linear(cfg.model_d_a, d_r, rng)
        self.audio_mha = MultiHeadAttention(heads, d_r, d_r, d_r, rng)
        self.expand = Linear(d_r, d_l, rng)
        self.lmhead = Linear(d_l, lm.vocab_size, rng)
        self.lmhead.W.data = lm.head_matrix()
        self.lmhead.b.data = np.zeros(lm.vocab_size)


# ---------------------------------------------------------------------------
# fusion forward path
# ---------------------------------------------------------------------------

def position_logits(params: DecoderParams, phi: np.ndarray, guidance,
                    psi_guidance: np.ndarray, prefix, psi_hyps: np.ndarray,
                    rng: np.random.Generator | None = None,
                    training: bool = False) -> Tensor:
    """Logits (..., L, vocab) for PAD-padded prefixes (..., L); row t
    predicts the token following prefix[..., :t+1].

    phi is (..., D_a, T) audio features and guidance (..., M) PAD-padded
    guidance ids; batch axes of size 1 broadcast. psi_guidance holds the
    frozen-LM features of the guidance rows, psi_hyps those of the
    prefixes, or of their last rows only."""
    prefix = np.asarray(prefix, dtype=np.int64)
    if prefix.shape[-1] == 0 or np.any(prefix[..., 0] != BOS):
        raise ValueError("prefix must start with BOS")
    keep = (1.0, 1.0)
    if training and params.dropout > 0.0:
        keep = dropout_keep(prefix != PAD, (params.d_l, params.d_r),
                            params.dropout, rng)
    guidance = np.asarray(guidance, dtype=np.int64)
    key_mask = np.where(guidance == PAD, NEG_INF, 0.0)[..., None, None, :]
    fused = params.fuse_mha(psi_hyps, psi_guidance, key_mask) * keep[0]
    audio = params.audio_mha(params.reduce_hyp(fused),
                             params.reduce_audio(np.swapaxes(phi, -1, -2)))
    return params.lmhead(fused + params.expand(audio * keep[1]))


def posterior(lm: TinyCausalLm, params: DecoderParams, phi: np.ndarray,
              guidance, prefix, psi_guidance: np.ndarray) -> np.ndarray:
    """p(next token | audio, guidance, prefix) rows (..., vocab) for
    prefixes (..., L) of one length, as beam search holds them; guidance
    and psi_guidance as in position_logits.

    Fusion runs on the last position only. Fusion rows are independent and
    the LM is causal, so this is the softmax of position_logits' last row."""
    psi_last = lm.features(np.asarray(prefix))[..., -1:, :]
    logits = position_logits(params, phi, guidance, psi_guidance, prefix,
                             psi_last)
    return logits.softmax().data[..., 0, :]


def smoothed_cross_entropy(logits: Tensor, targets, lam: float) -> Tensor:
    """Label-smoothed cross-entropy: the mean over items of each item's mean
    over its positions. logits (..., L, V), targets (..., L) PAD-padded.

    Target distribution: (1 - lam) * one-hot + lam / V uniform."""
    targets = np.asarray(targets, dtype=np.int64)
    v = logits.shape[-1]
    if targets.shape != logits.shape[:-1]:
        raise ShapeError(f"need targets of shape {logits.shape[:-1]}, "
                         f"got {targets.shape}")
    real = targets != PAD
    weight = real / real.sum(-1, keepdims=True) / real[..., 0].size
    dist = np.full(logits.shape, lam / v)
    np.put_along_axis(dist, targets[..., None], lam / v + (1.0 - lam), -1)
    return -(logits.log_softmax() * Tensor(dist * weight[..., None])).sum()


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class DecoderTrainResult:
    params: DecoderParams
    history: list[dict] = field(default_factory=list)
    skipped_items: int = 0
    best_epoch: int = -1
    best_val_loss: float = float("inf")


def train_decoder(lm: TinyCausalLm, tokenizer: TinyTokenizer,
                  items: list[DatasetItem], labels: np.ndarray,
                  cfg: PipelineConfig, seed: int) -> DecoderTrainResult:
    """Teacher-forced training with per-epoch random guidance selection.

    Guidance for each item is K captions drawn from its similar-labeled
    training captions, randomly selected and ordered each epoch (sampling
    with replacement when fewer than K are available); each epoch encodes
    the guidance of all its steps in one frozen-LM call. `labels` is the
    (n, n) bool similar-caption matrix over `items`."""
    train, valid, pools = training_pools(items, labels)
    params = DecoderParams(cfg, lm, np.random.default_rng([seed, 11]))
    opt = Adam(params)
    rng_sample = np.random.default_rng([seed, 12])
    rng_drop = np.random.default_rng([seed, 13])

    sim_of = {i: train[similar] for i, (similar, _) in pools.items()}
    usable = [i for i in train.tolist() if len(sim_of[i])]
    result = DecoderTrainResult(params=params)
    result.skipped_items = len(train) - len(usable)
    if result.skipped_items:
        log.info("skipped %d items with no similar-labeled captions",
                 result.skipped_items)
    if not usable:
        raise TrainingError("no item has similar-labeled captions")

    # teacher forcing fixes the prefixes, so their features are computed once
    caps = [tokenizer.encode(it.caption) for it in items]
    psi = lm.features([[BOS] + cap for cap in caps])
    prefixes = pad_ids([[BOS] + cap for cap in caps])
    targets = pad_ids([cap + [EOS] for cap in caps])
    lengths = (prefixes != PAD).sum(1)
    feats = np.stack([it.features for it in items])

    def pick_refs(i: int, rng: np.random.Generator) -> list[int]:
        pool = sim_of[i]
        chosen = rng.choice(pool, size=cfg.retrieval_k,
                            replace=len(pool) < cfg.retrieval_k)
        return guidance_ids([caps[j] for j in chosen])

    def batch_loss(rows: list[int], guidance: np.ndarray,
                   psi_guidance: np.ndarray, training: bool) -> Tensor:
        """Mean loss of items `rows` in one forward, padded to their
        longest prefix, given their PAD-padded guidance and its features."""
        n = lengths[rows].max()
        logits = position_logits(params, feats[rows], guidance,
                                 psi_guidance, prefixes[rows, :n],
                                 psi[rows, :n], rng_drop, training)
        return smoothed_cross_entropy(logits, targets[rows, :n],
                                      cfg.decoder_lambda)

    # fixed seeded validation guidance
    rng_val = np.random.default_rng([seed, 14])
    val_rows = [i for i in valid if len(sim_of[i])]
    val_refs = [pick_refs(i, rng_val) for i in val_rows]
    val_guidance = ((pad_ids(val_refs), lm.features(val_refs)) if val_rows
                    else None)

    def run_epoch(epoch: int):
        lr = cosine_lr(epoch, cfg.decoder_lr_period, cfg.decoder_lr_max,
                       cfg.decoder_lr_min)
        epoch_rows = [usable[k] for k in rng_sample.permutation(len(usable))]
        # the guidance of every step, drawn in step order, encoded at once
        refs = [pick_refs(i, rng_sample) for i in epoch_rows]
        guidance, psi_guidance = pad_ids(refs), lm.features(refs)
        losses = []
        for start in range(0, len(usable), cfg.decoder_batch):
            step = slice(start, start + cfg.decoder_batch)
            width = max(map(len, refs[step]))
            losses.append(opt.minimize(
                lambda: batch_loss(epoch_rows[step], guidance[step, :width],
                                   psi_guidance[step, :width], True),
                f"decoder loss at epoch {epoch}", lr))
        return lr, losses

    def val_loss():
        return (batch_loss(val_rows, *val_guidance, False).item()
                if val_rows else None)

    result.history, result.best_epoch, result.best_val_loss = best_of_epochs(
        opt, cfg.decoder_epochs, run_epoch, val_loss)
    return result


# ---------------------------------------------------------------------------
# beam search
# ---------------------------------------------------------------------------

def fusion_step(lm: TinyCausalLm, params: DecoderParams, phis,
                guidances: list[list[int]]):
    """The fusion decoder's beam step for N items: item n has audio
    features phis[n] (D_a, T) and SEP-joined guidance ids guidances[n].
    All guidance is encoded here, once; each step is one posterior call on
    the items of its rows."""
    phis = np.asarray(phis, dtype=np.float64)
    guidance, psi_guidance = pad_ids(guidances), lm.features(guidances)

    def step(owner, prefixes):
        p = posterior(lm, params, phis[owner], guidance[owner], prefixes,
                      psi_guidance[owner])
        return np.log(np.maximum(p, 1e-300))
    return step


def beam_search(step, n: int, beam: int, max_len: int) -> list[list[int]]:
    """Length-normalized beam search for N items in lockstep. step(owner,
    prefixes) returns the (rows, V) next-token log-probabilities of the
    BOS-led prefixes, one row per live beam; owner[r] is the item of row r.
    Returns N token lists (EOS included if generated).

    Each step scores the live beams of every unfinished item in one step
    call. Per item, beams end at EOS or at max_len; live beams are pruned
    by cumulative log-probability, the final ranking uses mean
    log-probability per emitted token. All ties break on the
    token sequence itself, so decoding is deterministic. Each beam offers
    only its own best `beam` non-EOS extensions: they hold every one kept.

    An item stops early once its best finished score lp / len is strictly
    greater than its best live lp divided by max_len. Every later candidate
    descends from a live beam, and log-probabilities are <= 0, so its
    cumulative lp is at most that beam's and its length at most max_len:
    its score lp / len <= lp / max_len <= best live lp / max_len. Rounding
    is monotone, so these inequalities also hold for the computed floats,
    and no later candidate can outrank the best finished one. A stopped
    item's live beams are therefore dropped, not force-finished."""
    live = [[((), 0.0)] for _ in range(n)]
    finished = [[] for _ in range(n)]
    best_done = [-np.inf] * n  # per item, the best finished lp / len
    running = list(range(n))
    for _ in range(max_len):
        if not running:
            break
        owner = [i for i in running for _ in live[i]]
        rows = iter(step(owner, [(BOS,) + toks for i in running
                                 for toks, _ in live[i]]))
        for i in running:
            next_live = []
            for (toks, lp), row in zip(live[i], rows):
                s = lp + row
                finished[i].append((toks + (EOS,), s[EOS]))
                best_done[i] = max(best_done[i], s[EOS] / (len(toks) + 1))
                next_live += [(toks + (v,), s[v]) for v in np.argsort(
                    -s, kind="stable")[:beam + 1].tolist() if v != EOS]
            next_live.sort(key=lambda e: (-e[1], e[0]))
            live[i] = next_live[:beam]
        running = [i for i in running
                   if live[i] and not best_done[i] > live[i][0][1] / max_len]
    for i in running:
        finished[i].extend(live[i])  # force-finish at max length
    return [list(max(done, key=lambda e: (e[1] / len(e[0]),
                                          tuple(-t for t in e[0])))[0])
            for done in finished]


def generate_captions(lm: TinyCausalLm, tokenizer: TinyTokenizer,
                      params: DecoderParams, phis,
                      guidance_texts: list[list[str]], beam: int,
                      max_len: int) -> list[str]:
    """One caption per item: audio features phis[n] (D_a, T), guided by the
    captions guidance_texts[n]; all items are decoded in one beam search."""
    guidances = [guidance_ids([tokenizer.encode(c) for c in texts])
                 for texts in guidance_texts]
    return [tokenizer.decode(toks) for toks in beam_search(
        fusion_step(lm, params, phis, guidances), len(guidances), beam,
        max_len)]
