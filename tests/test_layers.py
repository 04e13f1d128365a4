import ast
import glob
import math
import os

import numpy as np
import pytest

from conftest import finite_diff_check, make_cfg, rand_tensor, trainable
from ragcap import layers
from ragcap.archive import ArchiveFormatError
from ragcap.autodiff import ShapeError, Tensor
from ragcap.config import PipelineConfig
from ragcap.decoder import DecoderParams
from ragcap.errors import NumericError, TrainingError
from ragcap.layers import (Adam, EncoderLayer, LayerNorm, Linear,
                           MultiHeadAttention, ParamContainer, best_of_epochs,
                           causal_mask, cosine_lr, dropout_keep)
from ragcap.reference_models import TinyCausalLm
from ragcap.retrieval import EmbedderParams, embed_batch

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "ragcap")


# ---------------------------------------------------------------------------
# parameter containers
# ---------------------------------------------------------------------------

class _Part(ParamContainer):
    prefix = "part."

    def __init__(self, rng):
        self.w = Tensor(rng.normal(0.0, 1.0, size=(2,)))
        self.width = 2  # not a Tensor: not a parameter
        self.inner = Linear(2, 2, rng)
        self.blocks = [LayerNorm(2), LayerNorm(2)]


def test_walk_names_tensors_nested_parts_and_lists(rng):
    part = _Part(rng)
    assert [name for name, _ in part.named_params()] == [
        "part.w", "part.inner.W", "part.inner.b",
        "part.blocks0.gamma", "part.blocks0.beta",
        "part.blocks1.gamma", "part.blocks1.beta"]
    assert part.named_params()[3][1] is part.blocks[0].gamma


ATTN = ["W_q", "b_q", "W_k", "b_k", "W_v", "b_v", "W_o", "b_o"]
ENCODER = [f"attn.{n}" for n in ATTN] + [
    "ff1.W", "ff1.b", "ff2.W", "ff2.b",
    "ln1.gamma", "ln1.beta", "ln2.gamma", "ln2.beta"]


def test_checkpoint_names_and_order_are_pinned(rng):
    """The stored tensor names and their order, which is also Adam's
    parameter order."""
    lm = TinyCausalLm(10, make_cfg(lm_layers=2))
    assert [name for name, _ in lm.named_params()] == ["lm.emb"] + [
        f"lm.layer{i}.{n}" for i in (0, 1) for n in ENCODER]
    dec = DecoderParams(make_cfg(model_d_a=3, decoder_d_r=4, decoder_heads=2),
                        lm, rng)
    assert [name for name, _ in dec.named_params()] == [
        f"decoder.{n}" for n in
        [f"fuse_mha.{n}" for n in ATTN]
        + ["reduce_hyp.W", "reduce_hyp.b", "reduce_audio.W", "reduce_audio.b"]
        + [f"audio_mha.{n}" for n in ATTN]
        + ["expand.W", "expand.b", "lmhead.W", "lmhead.b"]]
    emb = EmbedderParams(PipelineConfig(), rng)
    assert [name for name, _ in emb.named_params()] == [
        f"embedder.layer.{n}" for n in ENCODER]


def test_only_param_container_defines_named_params():
    owners = []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)
        owners += [node.name for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef)
                   and any(isinstance(d, ast.FunctionDef)
                           and d.name == "named_params" for d in node.body)]
    assert owners == ["ParamContainer"]


def test_snapshot_restore_round_trip(rng):
    part = _Part(rng)
    saved = part.snapshot()
    for _, p in part.named_params():
        p.data = p.data + 1.0
    part.restore(saved)
    for name, p in part.named_params():
        np.testing.assert_array_equal(p.data, saved[name])
        assert p.data is not saved[name]


def test_restore_checks_names_and_shapes(rng):
    lin = Linear(2, 2, rng)
    with pytest.raises(ArchiveFormatError,
                       match="checkpoint missing parameter 'W'"):
        lin.restore({})
    with pytest.raises(ArchiveFormatError, match=r"parameter 'W' has shape "
                       r"\(3,\), expected \(2, 2\)"):
        lin.restore({"W": np.zeros(3), "b": np.zeros(2)})
    lin.restore({"W": np.ones((2, 2)), "b": np.ones(2)})
    np.testing.assert_array_equal(lin.W.data, np.ones((2, 2)))


def test_frozen_part_records_no_tape(rng):
    layer = EncoderLayer(4, 2, 8, rng)  # built frozen
    assert not any(p.requires_grad for _, p in layer.named_params())
    x = Tensor(rng.normal(size=(3, 4)))
    frozen = layer(x)
    assert not frozen.requires_grad and frozen._parents == ()
    before = layer.snapshot()
    weights = Tensor(rng.normal(size=(3, 4)))
    taped = []

    def loss():
        out = layer(x)
        taped.append(out.requires_grad)
        np.testing.assert_array_equal(out.data, frozen.data)
        return (out * weights).sum()

    Adam(layer).minimize([loss], "loss", 1e-3)
    assert taped == [True]  # trainable only inside the step
    assert all(not p.requires_grad and p.grad is None
               for _, p in layer.named_params())
    assert all(np.any(p.data != before[name])
               for name, p in layer.named_params())


def _violations(tree, module: str) -> set[tuple[str, str, str]]:
    """(module, enclosing def, kind) of every `.freeze(` call and every
    assignment or keyword of `requires_grad` in `tree`."""
    out = set()

    def visit(node, where: str):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}".lstrip(".")
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "freeze"):
                out.add((module, where, "freeze call"))
            if isinstance(child, ast.keyword) and child.arg == "requires_grad":
                out.add((module, where, "requires_grad keyword"))
            targets = (child.targets if isinstance(child, ast.Assign)
                       else [child.target]
                       if isinstance(child, (ast.AugAssign, ast.AnnAssign))
                       else [])
            if any(isinstance(t, ast.Attribute) and t.attr == "requires_grad"
                   for t in targets):
                out.add((module, where, "requires_grad assignment"))
            visit(child, inner)

    visit(tree, "")
    return out


def test_only_layers_switches_gradients():
    """Parts are built frozen; ParamContainer.freeze is the one place that
    sets requires_grad and Adam.minimize the one place that calls it.
    autodiff.py, which owns Tensor, sets the flag of the tensors it makes."""
    found = set()
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        module = os.path.basename(path)
        if module == "autodiff.py":
            continue
        with open(path, encoding="utf-8") as f:
            found |= _violations(ast.parse(f.read(), path), module)
    assert found == {
        ("layers.py", "ParamContainer.freeze", "requires_grad assignment"),
        ("layers.py", "Adam.minimize", "freeze call")}


def test_gradient_rule_check_sees_each_kind():
    tree = ast.parse("def f(t, part):\n"
                     "    part.freeze(False)\n"
                     "    t.requires_grad = True\n"
                     "    return Tensor(0.0, requires_grad=True)\n")
    assert _violations(tree, "m.py") == {
        ("m.py", "f", "freeze call"),
        ("m.py", "f", "requires_grad assignment"),
        ("m.py", "f", "requires_grad keyword")}


# ---------------------------------------------------------------------------
# linear / layer norm
# ---------------------------------------------------------------------------

def test_linear_shapes_and_gradcheck(rng):
    lin = Linear(4, 3, rng)
    lin.freeze(False)  # parts are built frozen
    x = rand_tensor(rng, (5, 4))
    out = lin(x)
    assert out.shape == (5, 3)
    finite_diff_check(lambda: (lin(x) ** 2.0).sum(),
                      [p for _, p in lin.named_params()] + [x])


def test_linear_rejects_wrong_dim(rng):
    with pytest.raises(ShapeError):
        Linear(4, 3, rng)(Tensor(np.ones((5, 5))))


def test_layernorm_affine_gradcheck(rng):
    ln = LayerNorm(6)
    ln.freeze(False)
    ln.gamma.data = rng.normal(1.0, 0.1, size=6)
    ln.beta.data = rng.normal(0.0, 0.1, size=6)
    x = rand_tensor(rng, (4, 6))
    finite_diff_check(lambda: (ln(x) ** 2.0).sum(),
                      [ln.gamma, ln.beta, x])


# ---------------------------------------------------------------------------
# multi-head attention
# ---------------------------------------------------------------------------

def test_single_key_attention_ignores_query(rng):
    mha = MultiHeadAttention(2, 4, 6, 8, rng)
    kv = Tensor(rng.normal(size=(1, 6)))
    q1 = Tensor(rng.normal(size=(3, 4)))
    q2 = Tensor(rng.normal(size=(3, 4)))
    out1 = mha(q1, kv).data
    out2 = mha(q2, kv).data
    # softmax over one key is 1 regardless of the logit
    np.testing.assert_allclose(out1, out2, atol=1e-12)
    assert np.allclose(out1[0], out1[1])


def test_two_equal_logit_keys_average_values(rng):
    d = 4
    mha = MultiHeadAttention(1, d, d, d, rng)
    eye = np.eye(d)
    for name in ("W_q", "W_k", "W_v", "W_o"):
        getattr(mha, name).data = eye.copy()
    for name in ("b_q", "b_k", "b_v", "b_o"):
        getattr(mha, name).data = np.zeros(d)
    query = Tensor(np.zeros((1, d)))  # zero query -> all logits 0
    values = rng.normal(size=(2, d))
    out = mha(query, Tensor(values)).data
    np.testing.assert_allclose(out[0], values.mean(axis=0), atol=1e-12)


def test_mha_matches_per_head_oracle(rng, monkeypatch):
    monkeypatch.setattr(layers, "INIT_STD", 0.3)
    heads, d_q, d_kv, d_model = 2, 6, 5, 8
    mha = MultiHeadAttention(heads, d_q, d_kv, d_model, rng)
    q = rng.normal(size=(4, d_q))
    kv = rng.normal(size=(7, d_kv))
    out = mha(Tensor(q), Tensor(kv)).data

    dh = d_model // heads
    qp = q @ mha.W_q.data + mha.b_q.data
    kp = kv @ mha.W_k.data + mha.b_k.data
    vp = kv @ mha.W_v.data + mha.b_v.data
    merged = np.zeros((4, d_model))
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        scores = qp[:, sl] @ kp[:, sl].T / math.sqrt(dh)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        attn = e / e.sum(axis=1, keepdims=True)
        merged[:, sl] = attn @ vp[:, sl]
    ref = merged @ mha.W_o.data + mha.b_o.data
    np.testing.assert_allclose(out, ref, atol=1e-10)


def test_causal_mask_blocks_future(rng, monkeypatch):
    monkeypatch.setattr(layers, "INIT_STD", 0.3)
    mha = MultiHeadAttention(2, 4, 4, 8, rng)
    x = rng.normal(size=(5, 4))
    base = mha(Tensor(x), Tensor(x), causal_mask(5)).data
    mutated = x.copy()
    mutated[3:] += 10.0  # rows after position 2
    out = mha(Tensor(mutated[:4]), Tensor(mutated[:4]), causal_mask(4)).data
    np.testing.assert_allclose(out[:3], base[:3], atol=1e-12)


def test_causal_mask_matrix():
    m = causal_mask(3)
    assert np.all(m[np.tril_indices(3)] == 0.0)
    assert np.all(m[np.triu_indices(3, k=1)] < -1e29)


def test_causal_requires_square(rng):
    mha = MultiHeadAttention(1, 4, 4, 4, rng)
    with pytest.raises(ShapeError):
        mha(Tensor(np.ones((2, 4))), Tensor(np.ones((3, 4))), causal_mask(2))


def test_mha_batched_leading_dims(rng, monkeypatch):
    monkeypatch.setattr(layers, "INIT_STD", 0.3)
    mha = MultiHeadAttention(2, 4, 4, 8, rng)
    q = rng.normal(size=(3, 5, 4))
    kv = rng.normal(size=(3, 6, 4))
    out = mha(Tensor(q), Tensor(kv)).data
    assert out.shape == (3, 5, 4)
    for b in range(3):
        single = mha(Tensor(q[b]), Tensor(kv[b])).data
        np.testing.assert_allclose(out[b], single, atol=1e-12)


def test_mha_gradcheck(rng, monkeypatch):
    monkeypatch.setattr(layers, "INIT_STD", 0.3)
    mha = MultiHeadAttention(2, 4, 3, 8, rng)
    mha.freeze(False)
    q = rand_tensor(rng, (3, 4))
    kv = rand_tensor(rng, (5, 3))
    finite_diff_check(lambda: (mha(q, kv) ** 2.0).sum(),
                      [p for _, p in mha.named_params()] + [q, kv])


# ---------------------------------------------------------------------------
# encoder layer
# ---------------------------------------------------------------------------

def test_encoder_layer_preserves_shape(rng):
    layer = EncoderLayer(6, 2, 12, rng)
    for t in (1, 3, 8):
        out = layer(Tensor(rng.normal(size=(t, 6))))
        assert out.shape == (t, 6)


def test_encoder_layer_permutation_equivariant(rng, monkeypatch):
    monkeypatch.setattr(layers, "INIT_STD", 0.3)
    # no positional information inside the layer itself
    layer = EncoderLayer(6, 2, 12, rng)
    x = rng.normal(size=(3, 6))
    perm = [2, 0, 1]
    out = layer(Tensor(x)).data
    out_perm = layer(Tensor(x[perm])).data
    np.testing.assert_allclose(out_perm, out[perm], atol=1e-10)


def test_encoder_layer_gradcheck(rng, monkeypatch):
    monkeypatch.setattr(layers, "INIT_STD", 0.3)
    layer = EncoderLayer(4, 2, 8, rng)
    layer.freeze(False)
    x = rand_tensor(rng, (3, 4))
    finite_diff_check(lambda: (layer(x) ** 2.0).sum(),
                      [p for _, p in layer.named_params()] + [x])


def test_encoder_layer_rejects_wrong_dim(rng):
    with pytest.raises(ShapeError):
        EncoderLayer(4, 2, 8, rng)(Tensor(np.ones((3, 5))))


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------

def test_dropout_identity_when_not_training(rng):
    """A p = 0 mask is one on real rows and zero past them, and the
    embedder draws no mask when not training or at p = 0."""
    real = np.array([[True, True, False], [True, True, True]])
    for keep in dropout_keep(real, (2, 5), 0.0, rng):
        np.testing.assert_array_equal(
            keep, np.broadcast_to(real[..., None], keep.shape))
    phis = rng.normal(size=(3, 4, 6))
    outs = []
    for p, training in ((0.5, False), (0.0, True)):
        params = EmbedderParams(
            make_cfg(model_d_a=4, model_t=6, embed_heads=2, embed_ff=8,
                     embed_dropout=p), np.random.default_rng(1))
        draws = np.random.default_rng(2)
        outs.append(embed_batch(params, phis, draws, training).data)
        assert draws.random() == np.random.default_rng(2).random()
    np.testing.assert_array_equal(outs[0], outs[1])


def test_dropout_inverted_scaling(rng):
    state = rng.bit_generator.state
    [keep] = dropout_keep(np.ones((200, 40), dtype=bool), (5,), 0.3, rng)
    kept = keep[keep != 0]
    np.testing.assert_allclose(kept, 1.0 / 0.7, atol=1e-12)
    assert abs(keep.mean() - 1.0) < 0.02  # unbiased in expectation
    # items of full length draw what one whole-batch draw does
    rng.bit_generator.state = state
    np.testing.assert_array_equal(keep,
                                  (rng.random((200, 40, 5)) >= 0.3) / 0.7)


def per_item_keep(real, dims, p, rng):
    """The per-item definition: item by item, a (length, d) mask for each
    width d in turn."""
    lengths = real.sum(-1)
    keep = [np.zeros(real.shape + (d,)) for d in dims]
    for item in np.ndindex(lengths.shape):
        n = lengths[item]
        for k, d in zip(keep, dims):
            k[item][:n] = (rng.random((n, d)) >= p) / (1.0 - p)
    return keep


def test_dropout_keep_matches_per_item_draws(rng):
    """Batches of any shape, ragged lengths (empty items included) and one
    to three widths give the per-item masks bit for bit, and leave the
    generator where the per-item draws leave it."""
    for seed in range(50):
        shape = tuple(rng.integers(1, 5, size=rng.integers(1, 4)))
        lengths = rng.integers(0, shape[-1] + 1, size=shape[:-1])
        real = np.arange(shape[-1]) < lengths[..., None]
        dims = tuple(rng.integers(1, 6, size=rng.integers(1, 4)))
        got_rng, want_rng = (np.random.default_rng(seed) for _ in range(2))
        got = dropout_keep(real, dims, 0.3, got_rng)
        want = per_item_keep(real, dims, 0.3, want_rng)
        for g, w in zip(got, want, strict=True):
            assert g.tobytes() == w.tobytes()
        assert got_rng.random() == want_rng.random()


# ---------------------------------------------------------------------------
# cosine schedule and Adam
# ---------------------------------------------------------------------------

def test_cosine_lr_endpoints_and_midpoint():
    assert cosine_lr(0, 20, 1e-4, 1e-6) == pytest.approx(1e-4, abs=1e-15)
    assert cosine_lr(20, 20, 1e-4, 1e-6) == pytest.approx(1e-4, abs=1e-15)
    assert cosine_lr(10, 20, 1e-4, 1e-6) == pytest.approx(5.05e-5, abs=1e-12)


def test_cosine_lr_rejects_bad_period():
    with pytest.raises(ValueError):
        cosine_lr(0, 0, 1e-4, 1e-6)


class _One(ParamContainer):
    """A part holding the one parameter p."""

    def __init__(self, p: Tensor):
        self.p = p


def test_adam_zero_grad_keeps_params(rng):
    p = Tensor(rng.normal(0.0, 1.0, size=(3,)))
    before = p.data.copy()
    opt = Adam(_One(p))
    opt.step(1e-4)
    np.testing.assert_array_equal(p.data, before)


def test_adam_first_step_magnitude():
    p = trainable(np.zeros(1))
    p.grad = np.ones(1)
    Adam(_One(p)).step(1e-4)
    # bias correction makes m_hat = g, v_hat = g^2 on step one
    assert p.data[0] == pytest.approx(-1e-4, rel=1e-6)


def test_adam_matches_scalar_oracle():
    p = trainable(np.array([2.0]))
    opt = Adam(_One(p))
    theta, m, v, b1, b2, eps = 2.0, 0.0, 0.0, 0.9, 0.999, 1e-8
    for t in range(1, 6):
        g = 2.0 * theta  # gradient of theta^2
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= 0.1 * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)

        p.grad = 2.0 * p.data
        opt.step(0.1)
    assert p.data[0] == pytest.approx(theta, abs=1e-12)


def test_adam_respects_schedule_lr():
    p = trainable(np.zeros(1))
    p.grad = np.ones(1)
    opt = Adam(_One(p))
    opt.step(1e-3)
    assert p.data[0] == pytest.approx(-1e-3, rel=1e-6)
    opt.step(0.0)  # each step takes its own rate
    assert p.data[0] == pytest.approx(-1e-3, rel=1e-6)


def test_adam_shape_mismatch(rng):
    p = Tensor(rng.normal(0.0, 1.0, size=(3,)))
    p.grad = np.ones(4)
    with pytest.raises(ShapeError):
        Adam(_One(p)).step(1e-4)


@pytest.mark.parametrize("build", [
    lambda rng: Linear(3, 2, rng), lambda rng: LayerNorm(3),
    lambda rng: EncoderLayer(4, 2, 8, rng), _Part])
def test_minimize_leaves_part_frozen_and_unchanged_on_error(build, rng):
    """A non-finite loss part raises NumericError before its backward or
    the step, also after an earlier part's backward ran, and an error while
    a part is built leaves the part as it found it too."""
    part = build(rng)
    opt = Adam(part)
    before = part.snapshot()

    def nonfinite():
        for _, p in part.named_params():
            assert p.requires_grad  # unfrozen while the loss is built
        loss = sum((p * p).sum() for _, p in part.named_params())
        return loss * np.inf

    def broken():
        (part.named_params()[0][1] * 2.0).sum().backward()  # a stray grad
        raise ShapeError("broken loss")

    def finite():
        return sum((p * p).sum() for _, p in part.named_params())

    with pytest.raises(NumericError, match="non-finite toy loss"):
        opt.minimize([nonfinite], "toy loss", 1.0)
    with pytest.raises(ShapeError, match="broken loss"):
        opt.minimize([broken], "toy loss", 1.0)
    # a later part fails after an earlier one's backward ran
    with pytest.raises(NumericError, match="non-finite toy loss"):
        opt.minimize([finite, nonfinite], "toy loss", 1.0)
    assert opt.t == 0
    for name, p in part.named_params():
        assert not p.requires_grad and p.grad is None, name
        np.testing.assert_array_equal(p.data, before[name], err_msg=name)


# ---------------------------------------------------------------------------
# best-validation epoch loop
# ---------------------------------------------------------------------------

def _epochs(step_losses, val_losses, lr=0.5):
    """best_of_epochs on a one-parameter part whose weight is set to the
    epoch number in each epoch; returns (result, final weight)."""
    part = _One(Tensor(np.array([-1.0])))

    def run_epoch(epoch):
        part.p.data = np.array([float(epoch)])
        return lr, list(step_losses[epoch])

    vals = iter(val_losses)
    result = best_of_epochs(Adam(part), len(step_losses), run_epoch,
                            lambda: next(vals))
    return result, part.p.data[0]


def test_best_of_epochs_keeps_first_best_and_restores_it():
    (history, best_epoch, best_loss), weight = _epochs(
        [[9.0], [9.0], [9.0], [9.0]], [3.0, 1.0, 1.0, 2.0])
    assert (best_epoch, best_loss) == (1, 1.0)
    assert weight == 1.0  # epoch 1's weights, not the last epoch's
    assert history == [{"epoch": e, "train_loss": 9.0, "val_loss": v,
                        "lr": 0.5} for e, v in enumerate([3.0, 1.0, 1.0, 2.0])]


def test_best_of_epochs_without_validation_uses_training_loss():
    (history, best_epoch, best_loss), weight = _epochs(
        [[4.0, 2.0], [1.0, 2.0], [5.0]], [None, None, None])
    assert [h["train_loss"] for h in history] == [3.0, 1.5, 5.0]
    assert [h["val_loss"] for h in history] == [3.0, 1.5, 5.0]
    assert (best_epoch, best_loss, weight) == (1, 1.5, 1.0)


def test_best_of_epochs_empty_epochs():
    with pytest.raises(TrainingError, match="first epoch took no training"):
        _epochs([[], [1.0]], [None, None])
    # a later epoch without a step has training loss 0.0
    (history, best_epoch, _), weight = _epochs([[2.0], []], [None, None])
    assert [h["train_loss"] for h in history] == [2.0, 0.0]
    assert (best_epoch, weight) == (1, 1.0)


def test_best_of_epochs_no_epoch_keeps_initial_weights():
    (history, best_epoch, best_loss), weight = _epochs([], [])
    assert (history, best_epoch, best_loss, weight) == (
        [], -1, float("inf"), -1.0)
