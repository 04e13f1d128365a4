"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything is 64-bit, single-threaded and deterministic.
In-place arithmetic only touches arrays the same operation just allocated.
Shapes broadcast like numpy; matmul supports stacked (batched) operands.
Gradients from repeated backward() calls accumulate, in the order the
contributions arrive: backward() on losses that share only leaves, one
after another, gives the bits of one backward() on their left-to-right
sum. A Tensor is made without gradients; only an operation on one that
has them, or `layers.ParamContainer.freeze`, sets `requires_grad`.

An affine map x @ W + b (`affine`) and an affine layer norm (`layer_norm`)
are one node each, so each keeps one activation rather than one per
primitive. A graph lives as long as its loss tensor. The trainers hand
`layers.Adam.minimize` functions that build a step's loss part by part,
and it drops each part's graph after its backward: at most one part's
graph is alive at a time. Only minimize lets a model part's parameters
take gradients.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


class GraphError(RuntimeError):
    """Misuse of the autodiff graph (e.g. backward on a non-scalar)."""


LN_EPS = 1e-5  # added to layer_norm's variance
_GELU_C = math.sqrt(2.0 / math.pi)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` over broadcast axes so it matches `shape`."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _check_matmul(a, b):
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul needs >=2-d operands")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")


class Tensor:
    """A numpy float64 array plus an optional gradient tape entry."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = False
        self._parents = ()
        self._vjp = None

    # -- plumbing ----------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- backward pass -----------------------------------------------------

    def backward(self):
        """Reverse-mode sweep from a scalar. Accumulates into the .grad of
        the leaves (tensors no operation made); intermediate nodes keep
        none. A leaf that already holds a gradient continues from it: its
        first contribution of the sweep is added to that gradient, into a
        new array, and later ones to the result, so the grouping of the
        sums does not depend on where one sweep ends and the next begins."""
        if self.data.size != 1:
            raise GraphError("backward() requires a scalar loss, got shape %s"
                             % (self.data.shape,))
        if not self.requires_grad:
            raise GraphError("loss does not require gradients")

        # Iterative topological sort (graphs can be deep).
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        seed = np.ones_like(self.data)
        if self._vjp is None and self.grad is not None:
            seed += self.grad
        flowing = {id(self): seed}
        shared = set()  # parents whose gradient is an uncopied view
        for node in reversed(topo):
            g = flowing.pop(id(node), None)
            if g is None:
                continue
            if node._vjp is None:  # a leaf keeps its own array
                node.grad = g.copy() if id(node) in shared else g
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                acc = flowing.get(id(parent))
                if acc is None:
                    if parent._vjp is None and parent.grad is not None:
                        pg = parent.grad + pg
                    elif pg.base is not None:
                        # A view may share memory with another gradient, so
                        # it is never written in place. A non-contiguous
                        # one is copied: later _unbroadcast reductions then
                        # sum in C order, which fixes their rounding.
                        if pg.flags.c_contiguous:
                            shared.add(id(parent))
                        else:
                            pg = pg.copy()
                    flowing[id(parent)] = pg
                elif id(parent) in shared:
                    shared.discard(id(parent))
                    flowing[id(parent)] = acc + pg
                else:
                    acc += pg

    # -- elementwise arithmetic --------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        a, b = self, other
        return _make(a.data + b.data, (a, b),
                     lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))

    __radd__ = __add__

    def __neg__(self):
        a = self
        return _make(-a.data, (a,), lambda g: (-g,))

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __mul__(self, other):
        other = as_tensor(other)
        a, b = self, other
        return _make(a.data * b.data, (a, b),
                     lambda g: (_unbroadcast(g * b.data, a.shape),
                                _unbroadcast(g * a.data, b.shape)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        a, b = self, other
        return _make(a.data / b.data, (a, b),
                     lambda g: (_unbroadcast(g / b.data, a.shape),
                                _unbroadcast(-g * a.data / (b.data ** 2), b.shape)))

    def __pow__(self, exponent: float):
        a = self
        p = float(exponent)
        out = a.data ** p
        return _make(out, (a,), lambda g: (g * p * a.data ** (p - 1.0),))

    # -- linear algebra ------------------------------------------------------

    def __matmul__(self, other):
        other = as_tensor(other)
        a, b = self, other
        _check_matmul(a, b)
        out = a.data @ b.data

        def vjp(g):
            ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
            return ga, gb

        return _make(out, (a, b), vjp)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        old = a.shape
        return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))

    def swapaxes(self, ax1: int, ax2: int):
        a = self
        return _make(np.swapaxes(a.data, ax1, ax2), (a,),
                     lambda g: (np.swapaxes(g, ax1, ax2),))

    def __getitem__(self, key):
        a = self

        def vjp(g):
            z = np.zeros_like(a.data)
            np.add.at(z, key, g)
            return (z,)

        return _make(a.data[key], (a,), vjp)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None, keepdims=False):
        a = self

        def vjp(g):
            if axis is None:
                return (np.broadcast_to(g, a.shape).copy(),)
            gg = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(gg, a.shape).copy(),)

        return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), vjp)

    def mean(self):
        return self.sum() * (1.0 / self.size)

    # -- nonlinearities --------------------------------------------------------

    def relu(self):
        a = self
        mask = a.data > 0
        return _make(a.data * mask, (a,), lambda g: (g * mask,))

    def gelu(self):
        """GPT-2's GELU: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))."""
        a = self
        x = a.data
        t = x * x
        t *= x
        t *= 0.044715
        t += x
        t *= _GELU_C
        np.tanh(t, out=t)
        out = t + 1.0
        out *= 0.5
        out *= x

        def vjp(g):
            dt = (1.0 - t * t) * _GELU_C * (1.0 + 3 * 0.044715 * x * x)
            return (g * (0.5 * (1.0 + t + x * dt)),)

        return _make(out, (a,), vjp)

    def softmax(self, scale: float = 1.0, mask: np.ndarray | None = None):
        """Numerically stabilized softmax of `scale * self + mask` along
        the last axis. The constant additive `mask` broadcasts to self's
        shape and takes no gradient. One node and one array: it is the
        composition (self * scale + mask).softmax() bit for bit, forward and
        backward."""
        a = self
        out = a.data * scale
        if mask is not None:
            out += mask
        out -= out.max(axis=-1, keepdims=True)
        np.exp(out, out=out)
        out /= out.sum(axis=-1, keepdims=True)

        def vjp(g):
            dot = (g * out).sum(axis=-1, keepdims=True)
            return (out * (g - dot) * scale,)

        return _make(out, (a,), vjp)

    def log_softmax(self):
        """Log-softmax along the last axis."""
        a = self
        m = a.data.max(axis=-1, keepdims=True)
        shifted = a.data - m
        lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        out = shifted - lse

        def vjp(g):
            return (g - np.exp(out) * g.sum(axis=-1, keepdims=True),)

        return _make(out, (a,), vjp)


def _make(data, parents, vjp) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def affine(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """x @ W + b as one node that keeps one output array. It is the
    two-node composition bit for bit, forward and backward; the backward
    skips the matmul for x or W when it does not require a gradient."""
    _check_matmul(x, W)
    out = x.data @ W.data
    out += b.data

    def vjp(g):
        gx = gW = None
        if x.requires_grad:
            gx = _unbroadcast(g @ np.swapaxes(W.data, -1, -2), x.shape)
        if W.requires_grad:
            gW = _unbroadcast(np.swapaxes(x.data, -1, -2) @ g, W.shape)
        return gx, gW, _unbroadcast(g, b.shape)

    return _make(out, (x, W, b), vjp)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale by
    `gamma` and shift by `beta`, as one node. It is the composition
    xhat * gamma + beta bit for bit, forward and backward. Raises
    NumericError if a variance is not finite: an overflowed one would
    normalize every row to `beta`."""
    n = x.shape[-1]
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    var = np.square(xhat).sum(axis=-1, keepdims=True) / n  # np.var's steps
    if not np.isfinite(var).all():
        raise NumericError("non-finite layer_norm variance")
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv
    out = xhat * gamma.data
    out += beta.data

    def vjp(g):
        gxhat = g * gamma.data
        gsum = gxhat.sum(axis=-1, keepdims=True)
        gdot = (gxhat * xhat).sum(axis=-1, keepdims=True)
        gx = inv * (gxhat - gsum / n - xhat * gdot / n)
        return (gx, _unbroadcast(g * xhat, gamma.shape),
                _unbroadcast(g, beta.shape))

    return _make(out, (x, gamma, beta), vjp)
