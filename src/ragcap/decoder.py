"""Caption generation with a frozen causal LM and trainable fusion attention.

The frozen LM turns the concatenated guidance captions and the running
hypothesis prefix into feature matrices. A trainable cross-attention layer
fuses hypothesis features (queries) with guidance features (keys/values);
a second, dimension-reduced cross-attention path folds in the audio feature
sequence. The sum of both paths feeds a trainable token-prediction head.
Training is teacher-forced label-smoothed cross-entropy; generation is
length-normalized beam search.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ShapeError, Tensor
from .config import PipelineConfig
from .data import DatasetItem
from .errors import NumericError, TrainingError
from .layers import (Adam, Linear, MultiHeadAttention, ParamContainer,
                     cosine_lr, dropout)
from .reference_models import BOS, EOS, SEP, TinyCausalLm, TinyTokenizer
from .similarity import SimilarLabelMatrix

log = logging.getLogger("ragcap.decoder")


@dataclass
class GuidanceCaptions:
    """K guidance caption token sequences and their SEP-joined concatenation."""
    captions: list[list[int]]
    tokens: list[int] = field(init=False)

    def __post_init__(self):
        if not self.captions or any(len(c) == 0 for c in self.captions):
            raise ValueError("guidance captions must be nonempty")
        tokens: list[int] = []
        for i, cap in enumerate(self.captions):
            if i > 0:
                tokens.append(SEP)
            tokens.extend(cap)
        self.tokens = tokens


def make_guidance(tokenizer: TinyTokenizer,
                  captions: list[str]) -> GuidanceCaptions:
    return GuidanceCaptions([tokenizer.encode(c) for c in captions])


class DecoderParams(ParamContainer):
    """Trainable fusion blocks around the frozen LM."""

    def __init__(self, d_l: int, d_a: int, d_r: int, vocab: int, heads: int,
                 drop_p: float, rng: np.random.Generator, std: float = 0.02,
                 head_init: np.ndarray | None = None):
        self.d_l = d_l
        self.d_a = d_a
        self.d_r = d_r
        self.vocab = vocab
        self.dropout = drop_p
        self.fuse_mha = MultiHeadAttention(heads, d_l, d_l, d_l, rng, std)
        self.reduce_hyp = Linear(d_l, d_r, rng, std)
        self.reduce_audio = Linear(d_a, d_r, rng, std)
        self.audio_mha = MultiHeadAttention(heads, d_r, d_r, d_r, rng, std)
        self.expand = Linear(d_r, d_l, rng, std)
        self.lmhead = Linear(d_l, vocab, rng, std)
        if head_init is not None:
            if head_init.shape != (d_l, vocab):
                raise ShapeError(f"head init shape {head_init.shape}, "
                                 f"expected {(d_l, vocab)}")
            self.lmhead.W.data = head_init.copy()
            self.lmhead.b.data = np.zeros(vocab)

    def named_params(self, prefix: str = "decoder."):
        out = self.fuse_mha.named_params(prefix + "fuse_mha.")
        out += self.reduce_hyp.named_params(prefix + "reduce_hyp.")
        out += self.reduce_audio.named_params(prefix + "reduce_audio.")
        out += self.audio_mha.named_params(prefix + "audio_mha.")
        out += self.expand.named_params(prefix + "expand.")
        out += self.lmhead.named_params(prefix + "lmhead.")
        return out


# ---------------------------------------------------------------------------
# fusion forward path
# ---------------------------------------------------------------------------

def fuse(params: DecoderParams, psi_hyps, psi_refs,
         rng: np.random.Generator | None = None,
         training: bool = False) -> Tensor:
    """Cross-attention: hypothesis features (D_l, n) as queries over guidance
    features (D_l, M). Returns a (D_l, n) Tensor."""
    h = _as_cols(psi_hyps, params.d_l)
    r = _as_cols(psi_refs, params.d_l)
    out = params.fuse_mha(h.swapaxes(0, 1), r.swapaxes(0, 1))
    out = dropout(out, params.dropout, rng, training)
    return out.swapaxes(0, 1)


def fuse_audio(params: DecoderParams, psi, phi,
               rng: np.random.Generator | None = None,
               training: bool = False) -> Tensor:
    """Reduce both streams to D_r, cross-attend (fused-feature queries, audio
    keys/values), expand back to D_l. psi is (D_l, n), phi is (D_a, T)."""
    h = _as_cols(psi, params.d_l)
    a = _as_cols(phi, params.d_a)
    hq = params.reduce_hyp(h.swapaxes(0, 1))
    akv = params.reduce_audio(a.swapaxes(0, 1))
    out = params.audio_mha(hq, akv)
    out = dropout(out, params.dropout, rng, training)
    return params.expand(out).swapaxes(0, 1)


def _as_cols(x, rows: int) -> Tensor:
    x = x if isinstance(x, Tensor) else Tensor(x)
    if x.ndim != 2 or x.shape[0] != rows:
        raise ShapeError(f"expected ({rows}, L) matrix, got {x.shape}")
    return x


def position_logits(lm: TinyCausalLm, params: DecoderParams,
                    phi: np.ndarray, guidance: GuidanceCaptions,
                    prefix: list[int],
                    rng: np.random.Generator | None = None,
                    training: bool = False,
                    psi_refs: np.ndarray | None = None,
                    psi_hyps: np.ndarray | None = None) -> Tensor:
    """Logits for every prefix position, shape (len(prefix), vocab).
    Row t predicts the token following prefix[:t+1]."""
    if not prefix or prefix[0] != BOS:
        raise ValueError("prefix must start with BOS")
    if psi_hyps is None:
        psi_hyps = lm.features(prefix)
    if psi_refs is None:
        psi_refs = lm.features(guidance.tokens)
    fused = fuse(params, psi_hyps, psi_refs, rng, training)
    audio = fuse_audio(params, fused, phi, rng, training)
    return params.lmhead((fused + audio).swapaxes(0, 1))


def posterior(lm: TinyCausalLm, params: DecoderParams, phi: np.ndarray,
              guidance: GuidanceCaptions, prefix: list[int],
              psi_refs: np.ndarray | None = None) -> np.ndarray:
    """p(next token | audio, guidance, prefix) as a probability row."""
    logits = position_logits(lm, params, phi, guidance, prefix,
                             psi_refs=psi_refs)
    return logits[-1].softmax().data


def smoothed_cross_entropy(logits: Tensor, targets, lam: float) -> Tensor:
    """Mean label-smoothed cross-entropy over positions.

    Target distribution: (1 - lam) * one-hot + lam / V uniform."""
    targets = np.asarray(targets, dtype=np.int64)
    n, v = logits.shape
    if targets.shape != (n,):
        raise ShapeError(f"need {n} targets, got {targets.shape}")
    logp = logits.log_softmax(axis=-1)
    dist = np.full((n, v), lam / v)
    dist[np.arange(n), targets] += 1.0 - lam
    return -(logp * Tensor(dist)).sum() * (1.0 / n)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class DecoderTrainResult:
    params: DecoderParams
    history: list[dict] = field(default_factory=list)
    skipped_items: int = 0
    replacement_items: int = 0
    best_epoch: int = -1
    best_val_loss: float = float("inf")


def train_decoder(lm: TinyCausalLm, tokenizer: TinyTokenizer,
                  items: list[DatasetItem], labels: SimilarLabelMatrix,
                  cfg: PipelineConfig, seed: int) -> DecoderTrainResult:
    """Teacher-forced training with per-step random guidance selection.

    Guidance for each item is K captions drawn from its similar-labeled
    training captions, randomly selected and ordered each epoch (sampling
    with replacement when fewer than K are available)."""
    if labels.n != len(items):
        raise ShapeError("label matrix size does not match item count")
    train_idx = [i for i, it in enumerate(items) if it.split == "train"]
    valid_idx = [i for i, it in enumerate(items) if it.split == "valid"]
    if not train_idx:
        raise TrainingError("no training items")

    rng_init = np.random.default_rng([seed, 11])
    params = DecoderParams(lm.d_model, items[0].features.shape[0],
                           cfg.decoder_d_r, lm.vocab_size, cfg.decoder_heads,
                           cfg.decoder_dropout, rng_init, cfg.init_std,
                           head_init=lm.head_matrix())
    opt = Adam([p for _, p in params.named_params()])
    rng_sample = np.random.default_rng([seed, 12])
    rng_drop = np.random.default_rng([seed, 13])

    train = np.array(train_idx)
    sim_of = {i: train[labels.train_pools(i, train)[0]]
              for i in train_idx + valid_idx}
    usable = [i for i in train_idx if len(sim_of[i])]
    result = DecoderTrainResult(params=params)
    result.skipped_items = len(train_idx) - len(usable)
    if result.skipped_items:
        log.info("skipped %d items with no similar-labeled captions",
                 result.skipped_items)
    if not usable:
        raise TrainingError("no item has similar-labeled captions")

    # prefix features are teacher-forced and therefore fixed: cache them
    prefixes = {}
    targets = {}
    hyp_feats = {}
    for i in train_idx + valid_idx:
        cap = tokenizer.encode(items[i].caption)
        prefixes[i] = [BOS] + cap
        targets[i] = np.array(cap + [EOS], dtype=np.int64)
        hyp_feats[i] = lm.features(prefixes[i])

    def pick_refs(i: int, rng: np.random.Generator) -> GuidanceCaptions:
        pool = sim_of[i]
        if len(pool) >= cfg.retrieval_k:
            chosen = rng.choice(pool, size=cfg.retrieval_k, replace=False)
        else:
            result.replacement_items += 1
            chosen = rng.choice(pool, size=cfg.retrieval_k, replace=True)
        return GuidanceCaptions(
            [tokenizer.encode(items[int(j)].caption) for j in chosen])

    # fixed seeded validation guidance
    rng_val = np.random.default_rng([seed, 14])
    val_set = [(i, pick_refs(i, rng_val)) for i in valid_idx
               if len(sim_of[i])]
    val_refs_feats = [(i, lm.features(g.tokens)) for i, g in val_set]
    result.replacement_items = 0  # counting restarts with the training loop

    best = params.snapshot()
    for epoch in range(cfg.decoder_epochs):
        lr = cosine_lr(epoch, cfg.decoder_lr_period, cfg.decoder_lr_max,
                       cfg.decoder_lr_min)
        order = rng_sample.permutation(len(usable))
        epoch_losses = []
        for start in range(0, len(usable), cfg.decoder_batch):
            chunk = [usable[k] for k in order[start:start + cfg.decoder_batch]]
            total = None
            for i in chunk:
                g = pick_refs(i, rng_sample)
                logits = position_logits(
                    lm, params, items[i].features, g, prefixes[i],
                    rng=rng_drop, training=True, psi_hyps=hyp_feats[i])
                loss_i = smoothed_cross_entropy(logits, targets[i],
                                                cfg.decoder_lambda)
                total = loss_i if total is None else total + loss_i
            loss = total * (1.0 / len(chunk))
            if not np.isfinite(loss.data):
                raise NumericError(f"non-finite decoder loss at epoch {epoch}")
            loss.backward()
            opt.step(lr)
            opt.zero_grad()
            epoch_losses.append(loss.item())
        train_loss = float(np.mean(epoch_losses))

        if val_refs_feats:
            vls = []
            for (i, g), (_, rf) in zip(val_set, val_refs_feats):
                logits = position_logits(
                    lm, params, items[i].features, g, prefixes[i],
                    psi_refs=rf, psi_hyps=hyp_feats[i])
                vls.append(smoothed_cross_entropy(
                    logits, targets[i], cfg.decoder_lambda).item())
            val_loss = float(np.mean(vls))
        else:
            val_loss = train_loss

        result.history.append({"epoch": epoch, "train_loss": train_loss,
                               "val_loss": val_loss, "lr": lr})
        if val_loss < result.best_val_loss:
            result.best_val_loss = val_loss
            result.best_epoch = epoch
            best = params.snapshot()

    params.restore(best)
    return result


# ---------------------------------------------------------------------------
# beam search
# ---------------------------------------------------------------------------

def beam_search(lm: TinyCausalLm, params: DecoderParams, phi: np.ndarray,
                guidance: GuidanceCaptions, beam: int,
                max_len: int) -> list[int]:
    """Length-normalized beam search.

    Beams end at EOS or at max length; live beams are pruned by cumulative
    log-probability, the final ranking uses mean log-probability per emitted
    token. All ties break on the token sequence itself, so decoding is
    deterministic. Returns the emitted tokens (EOS included if generated)."""
    psi_refs = lm.features(guidance.tokens)
    live: list[tuple[tuple[int, ...], float]] = [((), 0.0)]
    finished: list[tuple[tuple[int, ...], float]] = []
    for _ in range(max_len):
        if not live:
            break
        expansions = []
        for toks, lp in live:
            p = posterior(lm, params, phi, guidance, [BOS] + list(toks),
                          psi_refs=psi_refs)
            logp = np.log(np.maximum(p, 1e-300))
            for v in range(len(p)):
                expansions.append((toks + (v,), lp + logp[v]))
        next_live = []
        for toks, lp in expansions:
            if toks[-1] == EOS:
                finished.append((toks, lp))
            else:
                next_live.append((toks, lp))
        next_live.sort(key=lambda e: (-e[1], e[0]))
        live = next_live[:beam]
    finished.extend(live)  # force-finish at max length
    best = max(finished, key=lambda e: (e[1] / len(e[0]),
                                        tuple(-t for t in e[0])))
    return list(best[0])


def generate_caption(lm: TinyCausalLm, tokenizer: TinyTokenizer,
                     params: DecoderParams, phi: np.ndarray,
                     guidance_texts: list[str], beam: int,
                     max_len: int) -> str:
    g = make_guidance(tokenizer, guidance_texts)
    toks = beam_search(lm, params, phi, g, beam, max_len)
    return tokenizer.decode(toks)
