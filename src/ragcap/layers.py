"""Trainable blocks: the ParamContainer protocol every model part shares,
linear maps, multi-head attention, a Transformer-encoder layer, inverted
dropout, Adam, the best-validation epoch loop both trainers run, and the
restarting cosine learning-rate schedule. All parameters are float64
Tensors initialized from a caller-owned numpy Generator so runs are bitwise
reproducible: weights and biases are gaussian with standard deviation
INIT_STD, layer-norm scales and shifts start at 1 and 0.

Parts are built frozen: a forward pass through them records no autodiff
tape. Only `Adam.minimize` unfreezes a part, for the one step it takes.
"""

from __future__ import annotations

import math

import numpy as np

from . import archive
from .autodiff import ShapeError, Tensor, affine, as_tensor, layer_norm
from .errors import NumericError, TrainingError

NEG_INF = -1e30  # additive mask value; large enough to zero out softmax mass
INIT_STD = 0.02  # of every gaussian initial weight and bias


def gaussian(rng: np.random.Generator, shape) -> Tensor:
    return Tensor(rng.normal(0.0, INIT_STD, size=shape))


class ParamContainer:
    """A model part. Its parameters are the Tensors it holds as attributes,
    found by walking them in assignment order: a Tensor `x` is named `x`,
    the parameters of a nested container `c` are named `c.<name>`, and
    those of the i-th container in a list `l` `l<i>.<name>`. The class-level
    `prefix` starts every name. snapshot/restore copy the values out and
    back in by name; freeze switches their gradients off or on, which only
    Adam.minimize does."""

    prefix = ""

    def named_params(self) -> list[tuple[str, Tensor]]:
        out = []

        def walk(prefix: str, part: ParamContainer):
            for attr, value in vars(part).items():
                if isinstance(value, Tensor):
                    out.append((prefix + attr, value))
                elif isinstance(value, ParamContainer):
                    walk(f"{prefix}{attr}.", value)
                elif isinstance(value, list):
                    for i, item in enumerate(value):
                        walk(f"{prefix}{attr}{i}.", item)

        walk(self.prefix, self)
        return out

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_params()}

    def restore(self, tensors: dict[str, np.ndarray]):
        """Copy archived values into the parameters, checking shapes."""
        for name, p in self.named_params():
            if name not in tensors:
                raise archive.ArchiveFormatError(
                    f"checkpoint missing parameter {name!r}")
            arr = tensors[name]
            if arr.shape != p.data.shape:
                raise archive.ArchiveFormatError(
                    f"parameter {name!r} has shape {arr.shape}, "
                    f"expected {p.data.shape}")
            p.data = arr.copy()

    def freeze(self, frozen: bool):
        """Stop (frozen=True) or restart gradients for every parameter and
        drop their gradients. A forward pass through frozen parameters
        records no autodiff tape."""
        for _, p in self.named_params():
            p.requires_grad = not frozen
            p.grad = None


class Linear(ParamContainer):
    """y = x @ W + b with W of shape (d_in, d_out)."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        self.W = gaussian(rng, (d_in, d_out))
        self.b = gaussian(rng, (d_out,))

    def __call__(self, x: Tensor) -> Tensor:
        return affine(as_tensor(x), self.W, self.b)


class LayerNorm(ParamContainer):
    """Last-axis layer normalization with learnable scale and shift."""

    def __init__(self, dim: int):
        self.gamma = Tensor(np.ones(dim))
        self.beta = Tensor(np.zeros(dim))

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(as_tensor(x), self.gamma, self.beta)


def causal_mask(n: int) -> np.ndarray:
    """Additive (n, n) mask: row i may only attend to columns <= i."""
    return np.triu(np.full((n, n), NEG_INF), k=1)


def _broadcasts_to(shape: tuple, target: tuple) -> bool:
    try:
        return np.broadcast_shapes(shape, target) == target
    except ValueError:
        return False


class MultiHeadAttention(ParamContainer):
    """Scaled dot-product attention with `num_heads` heads.

    Query rows have dimension d_query, key/value rows d_kv; all heads
    together project into d_model and the output projects back to d_query.
    Accepts inputs of shape (..., L, d); leading axes are treated as batch.
    """

    def __init__(self, num_heads: int, d_query: int, d_kv: int, d_model: int,
                 rng: np.random.Generator):
        if d_model % num_heads != 0:
            raise ShapeError(f"d_model {d_model} not divisible by {num_heads} heads")
        self.num_heads = num_heads
        self.d_query = d_query
        self.d_kv = d_kv
        self.d_model = d_model
        self.d_head = d_model // num_heads
        self.W_q = gaussian(rng, (d_query, d_model))
        self.b_q = gaussian(rng, (d_model,))
        self.W_k = gaussian(rng, (d_kv, d_model))
        self.b_k = gaussian(rng, (d_model,))
        self.W_v = gaussian(rng, (d_kv, d_model))
        self.b_v = gaussian(rng, (d_model,))
        self.W_o = gaussian(rng, (d_model, d_query))
        self.b_o = gaussian(rng, (d_query,))

    def _split(self, x: Tensor):
        # (..., L, d_model) -> (..., H, L, d_head)
        new_shape = x.shape[:-1] + (self.num_heads, self.d_head)
        return x.reshape(new_shape).swapaxes(-3, -2)

    def __call__(self, query: Tensor, key_value: Tensor,
                 mask: np.ndarray | None = None) -> Tensor:
        """`mask` is added to the (..., H, L_q, L_kv) attention scores, to
        whose shape it must broadcast: NEG_INF where a query may not attend
        to a key, 0 elsewhere."""
        query = as_tensor(query)
        key_value = as_tensor(key_value)
        if query.shape[-1] != self.d_query:
            raise ShapeError(f"query dim {query.shape} != {self.d_query}")
        if key_value.shape[-1] != self.d_kv:
            raise ShapeError(f"key/value dim {key_value.shape} != {self.d_kv}")

        q = self._split(affine(query, self.W_q, self.b_q))
        k = self._split(affine(key_value, self.W_k, self.b_k))
        v = self._split(affine(key_value, self.W_v, self.b_v))

        scores = q @ k.swapaxes(-1, -2)
        if mask is not None and not _broadcasts_to(mask.shape, scores.shape):
            raise ShapeError(f"mask shape {mask.shape} does not fit "
                             f"scores {scores.shape}")
        attn = scores.softmax(scale=1.0 / math.sqrt(self.d_head), mask=mask)
        heads = attn @ v  # (..., H, L_q, d_head)
        merged = heads.swapaxes(-3, -2).reshape(
            query.shape[:-1] + (self.d_model,))
        return affine(merged, self.W_o, self.b_o)


class EncoderLayer(ParamContainer):
    """Post-norm Transformer-encoder layer: self-attention + GELU feed-forward,
    each wrapped in a residual connection followed by layer normalization.
    Input and output feature dimension are equal."""

    def __init__(self, d_model: int, num_heads: int, d_ff: int,
                 rng: np.random.Generator):
        self.d_model = d_model
        self.attn = MultiHeadAttention(num_heads, d_model, d_model, d_model,
                                       rng)
        self.ff1 = Linear(d_model, d_ff, rng)
        self.ff2 = Linear(d_ff, d_model, rng)
        self.ln1 = LayerNorm(d_model)
        self.ln2 = LayerNorm(d_model)

    def __call__(self, x: Tensor, causal: bool = False) -> Tensor:
        x = as_tensor(x)
        if x.shape[-1] != self.d_model:
            raise ShapeError(f"encoder layer dim {self.d_model}, got {x.shape}")
        mask = causal_mask(x.shape[-2]) if causal else None
        h = self.ln1(x + self.attn(x, x, mask))
        return self.ln2(h + self.ff2(self.ff1(h).gelu()))


def dropout_keep(real: np.ndarray, dims, p: float,
                 rng: np.random.Generator) -> list[np.ndarray]:
    """Inverted-dropout keep masks for items whose real positions are the
    leading True entries of `real` (..., L): one (..., L, d) array per
    width d, zero past each item's length. The masks are those of drawing,
    item by item, a (length, d) mask for each width d in turn, so padding
    does not change an item's masks; one draw holds them all."""
    lengths = real.sum(-1).ravel()
    # per real row, in C order: its item's first row, its item's length,
    # its position in the item and where the item's draws start
    first = np.repeat(np.cumsum(lengths) - lengths, lengths)
    n = np.repeat(lengths, lengths)
    t = np.arange(len(first)) - first
    start = first * sum(dims)
    draws = (rng.random(len(first) * sum(dims)) >= p) / (1.0 - p)
    keep, before = [], 0
    for d in dims:  # an item's width-d block follows its earlier ones
        k = np.zeros(real.shape + (d,))
        k[real] = draws[(start + n * before + t * d)[:, None] + np.arange(d)]
        keep.append(k)
        before += d
    return keep


def cosine_lr(epoch: int, period: int, lr_max: float, lr_min: float) -> float:
    """Half-cosine annealing from lr_max to lr_min, restarting every `period`."""
    if period <= 0:
        raise ValueError("period must be positive")
    t = epoch % period
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + math.cos(math.pi * t / period))


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Bias-corrected Adam over the parameters of one part; the caller gives
    the learning rate of each step."""

    def __init__(self, part: ParamContainer):
        self.part = part
        self.params = [p for _, p in part.named_params()]
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def minimize(self, parts, what: str, lr: float) -> float:
        """One training step at learning rate `lr` on a scalar loss given
        as the sum of parts: `parts` holds functions that each build one
        part with the part unfrozen. Each part is built, checked, backward
        swept and dropped before the next is built, so at most one part's
        graph is alive; the gradients are those of one backward on the
        parts' left-to-right sum (see `Tensor.backward`). Then one Adam
        step. Returns the sum of the parts' values; raises NumericError,
        naming `what`, before touching a weight if a part or a checked
        intermediate is not finite. However the step ends, the part is
        frozen again and its gradients dropped."""
        self.part.freeze(False)
        try:
            total = -0.0  # x + -0.0 is x bit for bit, -0.0 included
            for build in parts:
                try:
                    loss = build()
                except NumericError as e:
                    raise NumericError(f"non-finite {what}: {e}") from e
                value = loss.item()
                if not math.isfinite(value):
                    raise NumericError(f"non-finite {what}")
                loss.backward()
                del loss  # free this part's graph before the next is built
                total += value
            self.step(lr)
            return total
        finally:
            self.part.freeze(True)

    def step(self, lr: float):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ShapeError("gradient shape mismatch")
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * (g * g)
            m_hat = self.m[i] / (1.0 - b1 ** self.t)
            v_hat = self.v[i] / (1.0 - b2 ** self.t)
            p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def best_of_epochs(opt: Adam, epochs: int, run_epoch, val_loss):
    """Train opt's part for `epochs` epochs and keep the weights of the
    epoch with the lowest validation loss, the first one on a tie.

    `run_epoch(epoch)` takes the epoch's steps and returns (lr, their
    losses); an epoch without a step has training loss 0.0, and a first
    epoch without one raises TrainingError. `val_loss()` is the validation
    loss of the current weights, or None without a validation set, when
    the epoch's training loss stands in. Returns (history rows, best epoch,
    best validation loss); the part ends at the best epoch's weights."""
    history, best_epoch, best_loss = [], -1, float("inf")
    best = opt.part.snapshot()
    for epoch in range(epochs):
        lr, losses = run_epoch(epoch)
        if not losses and epoch == 0:
            raise TrainingError("the first epoch took no training step; "
                                "nothing to train")
        train_loss = float(np.mean(losses)) if losses else 0.0
        loss = val_loss()
        if loss is None:
            loss = train_loss
        history.append({"epoch": epoch, "train_loss": train_loss,
                        "val_loss": loss, "lr": lr})
        if loss < best_loss:
            best_epoch, best_loss, best = epoch, loss, opt.part.snapshot()
    opt.part.restore(best)
    return history, best_epoch, best_loss
