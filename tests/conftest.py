"""Shared test helpers: finite-difference gradient checking and small
deterministic fixtures."""

import struct
from itertools import product

import numpy as np
import pytest

from ragcap import layers
from ragcap.archive import pack_archive
from ragcap.autodiff import Tensor
from ragcap.config import PipelineConfig
from ragcap.decoder import position_logits
from ragcap.reference_models import BOS, EOS, PAD


def finite_diff_check(loss_fn, params, h=1e-5, rel_tol=1e-4, abs_tol=1e-7,
                      max_entries=6, rng=None):
    """Compare analytic gradients of a scalar loss against central finite
    differences on a sample of entries of every parameter tensor.

    loss_fn() must rebuild the graph from the current parameter data and
    return a scalar Tensor. Returns the worst relative error seen."""
    if rng is None:
        rng = np.random.default_rng(0)
    for p in params:
        p.grad = None
    loss = loss_fn()
    loss.backward()
    worst = 0.0
    for p in params:
        assert p.grad is not None, "no gradient reached a trainable parameter"
        flat = p.data.reshape(-1)
        gflat = p.grad.reshape(-1)
        n = flat.size
        picks = range(n) if n <= max_entries else sorted(
            rng.choice(n, size=max_entries, replace=False))
        for idx in picks:
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_fn().item()
            flat[idx] = orig - h
            down = loss_fn().item()
            flat[idx] = orig
            numeric = (up - down) / (2.0 * h)
            if abs(numeric - gflat[idx]) < abs_tol:
                continue  # both effectively zero: finite-difference noise
            denom = max(abs(numeric), abs(gflat[idx]), 1e-8)
            rel = abs(numeric - gflat[idx]) / denom
            worst = max(worst, rel)
            assert rel < rel_tol, (
                f"gradient mismatch: analytic {gflat[idx]}, "
                f"numeric {numeric}, rel err {rel}")
    return worst


def trainable(data) -> Tensor:
    """A Tensor that takes gradients, as a part's parameter does inside an
    Adam step."""
    t = Tensor(data)
    t.requires_grad = True
    return t


def rand_tensor(rng, shape, scale=1.0, requires_grad=True):
    data = rng.normal(0.0, scale, size=shape)
    return trainable(data) if requires_grad else Tensor(data)


def make_cfg(**overrides) -> PipelineConfig:
    """A PipelineConfig for building small parts. embed.heads defaults to
    1, which divides any model.D_a."""
    return PipelineConfig(**{"embed_heads": 1, **overrides})


def random_head(params, rng):
    """Replace a decoder's token head, which starts as the frozen LM's, by
    a gaussian one like its other weights (standard deviation
    layers.INIT_STD)."""
    params.lmhead.W.data = rng.normal(0.0, layers.INIT_STD,
                                      size=params.lmhead.W.shape)
    params.lmhead.b.data = rng.normal(0.0, layers.INIT_STD,
                                      size=params.lmhead.b.shape)


def encoded(lm, ids) -> np.ndarray:
    """lm.features of token ids as the package encodes them: one row (L,)
    as it is, and each row of a PAD-padded batch (N, L) at its own length,
    zero-filled to L."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim == 1:
        return lm.features(ids)
    feats = lm.features([row[:np.flatnonzero(row != PAD)[-1] + 1]
                         for row in ids])
    out = np.zeros(ids.shape + (lm.d_model,))
    out[:, :feats.shape[1]] = feats
    return out


def fusion_logits(lm, params, phi, guidance, prefix, rng=None,
                  training=False):
    """decoder.position_logits of guidance and prefix ids, with their
    features encoded as `encoded` does."""
    return position_logits(params, phi, guidance, encoded(lm, guidance),
                           prefix, encoded(lm, prefix), rng, training)


def full_forward_step(lm, params, phi, guidance):
    """A beam step for one item that scores each prefix from the last row
    of its full position_logits forward (fusion_logits), where the search's
    fusion_step scores it from posterior's last-row path."""
    def step(owner, prefixes):
        return np.array([fusion_logits(lm, params, phi, guidance, prefix)
                         .log_softmax().data[-1] for prefix in prefixes])
    return step


def exhaustive(step, vocab, max_len):
    """The best token list of item 0 under step, by the ranking rule of
    decoder.beam_search, found by scoring every sequence that ends at EOS
    or runs to max_len tokens."""
    rows = {}

    def logp(toks):  # next-token log-probabilities after BOS + toks
        if toks not in rows:
            rows[toks] = step([0], [(BOS,) + toks])[0]
        return rows[toks]

    cands = []
    for length in range(1, max_len + 1):
        for toks in product(range(vocab), repeat=length):
            if EOS in toks[:-1] or (toks[-1] != EOS and length < max_len):
                continue
            cands.append((toks, sum(logp(toks[:pos])[tok]
                                    for pos, tok in enumerate(toks))))
    return list(max(cands, key=lambda e: (e[1] / len(e[0]),
                                          tuple(-t for t in e[0])))[0])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def version_1_archive(tensors) -> bytes:
    """`tensors` as a version-1 archive: the version-2 layout without its
    metadata length and block (2 bytes for {})."""
    buf = pack_archive(tensors, {})
    return buf[:4] + struct.pack("<H", 1) + buf[6:10] + buf[16:]
