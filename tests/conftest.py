"""Shared test helpers: finite-difference gradient checking and small
deterministic fixtures."""

import numpy as np
import pytest

from ragcap import layers
from ragcap.autodiff import Tensor
from ragcap.config import PipelineConfig


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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
