import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from conftest import finite_diff_check, rand_tensor, trainable
from ragcap.autodiff import (GraphError, ShapeError, Tensor, _erf, _make,
                             affine, as_tensor, layer_norm)
from ragcap.errors import NumericError


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = Tensor(np.eye(2)) @ a
    np.testing.assert_array_equal(out.data, a.data)


def test_matmul_hand_example():
    out = Tensor([[1.0, 2.0], [3.0, 4.0]]) @ Tensor([[1.0], [1.0]])
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_matches_triple_loop(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    out = (Tensor(a) @ Tensor(b)).data
    ref = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                ref[i, j] += a[i, k] * b[k, j]
    np.testing.assert_allclose(out, ref, atol=1e-12)


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 3)))
    with pytest.raises(ShapeError):
        Tensor(np.ones(3)) @ Tensor(np.ones((3, 2)))


def test_matmul_batched_gradcheck(rng):
    a = rand_tensor(rng, (2, 3, 4))
    b = rand_tensor(rng, (2, 4, 5))
    finite_diff_check(lambda: ((a @ b) ** 2.0).sum(), [a, b])


def test_matmul_broadcast_batch(rng):
    a = rand_tensor(rng, (2, 3, 4))
    b = rand_tensor(rng, (4, 5))
    out = a @ b
    assert out.shape == (2, 3, 5)
    finite_diff_check(lambda: (a @ b).sum(), [a, b])


# ---------------------------------------------------------------------------
# softmax / log_softmax
# ---------------------------------------------------------------------------

def test_softmax_uniform():
    out = Tensor([0.0, 0.0, 0.0]).softmax()
    np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-15)


def test_softmax_large_logits_stable():
    out = Tensor([1000.0, 1000.0]).softmax()
    np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)
    assert np.all(np.isfinite(out.data))


def test_softmax_matches_exp_oracle():
    x = np.array([1.0, 2.0, 3.0])
    out = Tensor(x).softmax().data
    ref = np.exp(x) / np.exp(x).sum()
    np.testing.assert_allclose(out, ref, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2,
                max_size=8),
       st.integers(min_value=1, max_value=4))
def test_softmax_rows_sum_to_one(row, reps):
    x = Tensor(np.tile(row, (reps, 1)))
    out = x.softmax().data
    assert np.all(out >= 0)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)


def _softmax_oracle(x: Tensor) -> Tensor:
    """The plain last-axis softmax node, out of place."""
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)
    return _make(out, (x,), lambda g: (
        out * (g - (g * out).sum(axis=-1, keepdims=True)),))


@pytest.mark.parametrize("masked", [False, True])
def test_scaled_masked_softmax_is_the_composition_bitwise(rng, masked):
    scale = 1.0 / np.sqrt(8.0)
    mask = (np.where(rng.random((3, 1, 1, 6)) < 0.3, -1e30, 0.0) if masked
            else None)
    x = rand_tensor(rng, (3, 2, 5, 6), scale=3.0)
    w = rng.normal(size=x.shape)
    fused = x.softmax(scale=scale, mask=mask)
    (fused * Tensor(w)).sum().backward()
    fused_grad, x.grad = x.grad, None

    chain = x * scale
    if masked:
        chain = chain + Tensor(mask)
    chain = _softmax_oracle(chain)
    (chain * Tensor(w)).sum().backward()
    np.testing.assert_array_equal(fused.data, chain.data)
    np.testing.assert_array_equal(fused_grad, x.grad)


def test_gelu_matches_erf_formula_bitwise(rng):
    """gelu's numpy erf is scipy's (Cephes) erf bit for bit: at scales from
    1e-300 to 30, at special values, and with x / sqrt(2) on each side of
    every branch edge of Cephes' erf and erfc."""
    special = [0.0, 1.0, np.nextafter(1.0, 2.0), 8.0, np.inf, 5e-324]
    x = np.concatenate([[*special, *np.negative(special), np.nan],
                        *(rng.normal(size=20_000) * s for s in
                          (1e-300, 1e-8, 0.3, 1.0, 3.0, 10.0, 30.0))])
    # 1-d, 3-d and a transposed (Fortran-order) input
    for x in (rng.permutation(x), x.reshape(-1, 1, 1),
              x[13:].reshape(400, -1).T):
        with np.errstate(invalid="ignore"):  # gelu(-inf) = -inf * 0
            want = x * (0.5 * (1.0 + erf(x * 0.7071067811865476)))
            np.testing.assert_array_equal(Tensor(x).gelu().data, want)

    edges = [1.0, 8.0, math.sqrt(7.09782712893383996843E2), 27.0, np.inf]
    u = np.array([np.nextafter(e, d) for e in edges for d in (0.0, e, 99.0)])
    u = np.concatenate([u, -u, [np.nan, 1e200, -1e300, 1.7e308]])
    got = u.copy()
    _erf(got)
    np.testing.assert_array_equal(got, erf(u))


def test_log_softmax_consistent(rng):
    x = rand_tensor(rng, (3, 5))
    np.testing.assert_allclose(x.log_softmax().data,
                               np.log(x.softmax().data), atol=1e-12)
    finite_diff_check(lambda: (x.log_softmax() * x.log_softmax()).sum(), [x])


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def test_grad_of_sum_is_ones(rng):
    x = rand_tensor(rng, (3, 4))
    x.sum().backward()
    np.testing.assert_array_equal(x.grad, np.ones((3, 4)))


def test_grad_of_dot_is_2x(rng):
    x = rand_tensor(rng, (5,))
    (x * x).sum().backward()
    np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-12)


def test_composite_graph_matches_finite_differences(rng):
    w = rand_tensor(rng, (4, 3))
    x = Tensor(rng.normal(size=(2, 4)))
    targets = np.array([0, 2])

    def loss_fn():
        logits = x @ w
        logp = logits.log_softmax()
        onehot = np.zeros((2, 3))
        onehot[np.arange(2), targets] = 1.0
        return -(logp * Tensor(onehot)).sum()

    finite_diff_check(loss_fn, [w])


def test_repeated_backward_accumulates(rng):
    x = rand_tensor(rng, (3,))
    loss = (x * x).sum()
    loss.backward()
    first = x.grad.copy()
    loss.backward()
    np.testing.assert_allclose(x.grad, 2 * first, atol=1e-12)


def test_backward_keeps_grad_on_leaves_only(rng):
    x = rand_tensor(rng, (3,))
    y = x * x
    z = y.sum()
    z.backward()
    np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-12)
    assert y.grad is None and z.grad is None


def test_diamond_graph_grad(rng):
    # y appears twice in the graph; gradient contributions must add
    y = rand_tensor(rng, (3,))
    ((y + y) * y).sum().backward()
    np.testing.assert_allclose(y.grad, 4 * y.data, atol=1e-12)


def test_shared_gradient_views_are_not_written_in_place(rng):
    # x + y hands x and y views of one gradient; adding x's share of x * y
    # to its view must not reach y's
    w, c = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    for swap in (False, True):
        x, y = rand_tensor(rng, (3, 4)), rand_tensor(rng, (3, 4))
        terms = [((x + y) * Tensor(w)).sum(), (x * y * Tensor(c)).sum()]
        (terms[swap] + terms[not swap]).backward()
        np.testing.assert_array_equal(x.grad, w + c * y.data)
        np.testing.assert_array_equal(y.grad, w + c * x.data)


def test_backward_requires_scalar():
    x = trainable(np.ones((2, 2)))
    with pytest.raises(GraphError):
        (x * 2).backward()


def test_backward_requires_grad():
    x = Tensor(np.ones(1))
    with pytest.raises(GraphError):
        x.sum().backward()


def test_broadcast_add_grad(rng):
    a = rand_tensor(rng, (3, 4))
    b = rand_tensor(rng, (4,))
    (a + b).sum().backward()
    np.testing.assert_array_equal(a.grad, np.ones((3, 4)))
    np.testing.assert_array_equal(b.grad, 3 * np.ones(4))


def test_elementwise_ops_gradcheck(rng):
    x = rand_tensor(rng, (2, 3), scale=0.5)
    y = rand_tensor(rng, (2, 3), scale=0.5)
    finite_diff_check(
        lambda: ((x * y + x / (y * y + 2.0) - y) ** 3.0).sum(), [x, y])


def test_exp_log_relu_gelu_gradcheck(rng):
    x = rand_tensor(rng, (7,), scale=0.8)
    # exp and log enter the graph only through softmax and log_softmax
    finite_diff_check(lambda: (x.softmax() * x).sum()
                      + (x.log_softmax() * x).sum(), [x])
    finite_diff_check(lambda: x.gelu().sum(), [x])
    # relu gradient away from the kink
    y = trainable(np.array([-2.0, -0.5, 0.7, 1.5]))
    y.relu().sum().backward()
    np.testing.assert_array_equal(y.grad, [0.0, 0.0, 1.0, 1.0])


def test_getitem_grad(rng):
    x = rand_tensor(rng, (4, 3))
    x[1].sum().backward()
    expected = np.zeros((4, 3))
    expected[1] = 1.0
    np.testing.assert_array_equal(x.grad, expected)

    table = rand_tensor(rng, (5, 2))  # an embedding lookup
    table[np.array([1, 1, 3])].sum().backward()
    expected = np.zeros((5, 2))
    expected[1] = 2.0  # row gathered twice accumulates
    expected[3] = 1.0
    np.testing.assert_array_equal(table.grad, expected)


def test_reshape_swapaxes_mean_gradcheck(rng):
    x = rand_tensor(rng, (2, 3, 4))
    finite_diff_check(
        lambda: (x.swapaxes(0, 2).reshape((4, 6)).sum(axis=0) ** 2.0).mean(),
        [x])


def test_layer_norm_output_and_grad(rng):
    x = rand_tensor(rng, (3, 6))
    gamma = trainable(np.ones(6))
    beta = trainable(np.zeros(6))
    out = layer_norm(x, gamma, beta)
    np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-9)
    np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-4)
    gamma.data = rng.normal(size=6)
    beta.data = rng.normal(size=6)
    finite_diff_check(lambda: (layer_norm(x, gamma, beta) ** 3.0).sum(),
                      [x, gamma, beta])


@pytest.mark.filterwarnings("ignore:overflow")
def test_layer_norm_rejects_overflowed_variance():
    # finite entries whose squares overflow; the row would come out as beta
    x = Tensor([[1.0, 2.0, 3.0], [1e200, -1e200, 0.0]])
    with pytest.raises(NumericError, match="layer_norm variance"):
        layer_norm(x, Tensor(np.ones(3)), Tensor(np.zeros(3)))


# ---------------------------------------------------------------------------
# fused nodes against the compositions they replace
# ---------------------------------------------------------------------------

def _layer_norm_oracle(x, eps=1e-5):
    """The plain (non-affine) layer-norm node the fused one replaced."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    n = x.shape[-1]

    def vjp(g):
        gsum = g.sum(axis=-1, keepdims=True)
        gxhat = (g * xhat).sum(axis=-1, keepdims=True)
        return (inv * (g - gsum / n - xhat * gxhat / n),)

    return _make(xhat, (x,), vjp)


def _assert_fused_is_composition(rng, fused, composed, x_shape, param_shapes,
                                 d_out):
    """Forward values and every gradient of fused(x, *params) equal those
    of composed(x, *params) bit for bit. x feeds three calls, each with its
    own parameters, plus a residual term, as the shared input of attention's
    q/k/v projections does, so its gradient sums four contributions."""
    x = rand_tensor(rng, x_shape)
    params = [[rand_tensor(rng, s) for s in param_shapes] for _ in range(3)]
    leaves = [x] + [p for ps in params for p in ps]
    w_res = Tensor(rng.normal(size=x_shape))
    ws = [Tensor(rng.normal(size=x_shape[:-1] + (d_out,))) for _ in params]
    runs = []
    for f in (fused, composed):
        for t in leaves:
            t.grad = None
        outs = [f(x, *ps) for ps in params]
        loss = (x * w_res).sum()
        for out, w in zip(outs, ws):
            loss = loss + (out * w).sum()
        loss.backward()
        runs.append(([o.data for o in outs], [t.grad for t in leaves]))
    (fused_outs, fused_grads), (want_outs, want_grads) = runs
    for got, want in zip(fused_outs + fused_grads, want_outs + want_grads):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("x_shape", [(5, 4), (3, 5, 4), (2, 3, 5, 4)])
def test_affine_is_the_composition_bitwise(rng, x_shape):
    _assert_fused_is_composition(rng, affine, lambda x, W, b: x @ W + b,
                                 x_shape, [(4, 6), (6,)], 6)


def test_affine_checks_shapes(rng):
    W, b = rand_tensor(rng, (4, 6)), rand_tensor(rng, (6,))
    with pytest.raises(ShapeError):
        affine(rand_tensor(rng, (4,)), W, b)
    with pytest.raises(ShapeError):
        affine(rand_tensor(rng, (2, 5)), W, b)


@pytest.mark.parametrize("x_shape", [(5, 6), (3, 5, 6), (2, 3, 5, 6)])
def test_layer_norm_is_the_composition_bitwise(rng, x_shape):
    _assert_fused_is_composition(
        rng, layer_norm,
        lambda x, gamma, beta: _layer_norm_oracle(x) * gamma + beta,
        x_shape, [(6,), (6,)], 6)


def test_as_tensor_passthrough():
    t = Tensor([1.0])
    assert as_tensor(t) is t
    assert isinstance(as_tensor([1.0, 2.0]), Tensor)
