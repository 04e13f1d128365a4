"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything is 64-bit, single-threaded and deterministic.
In-place arithmetic only touches arrays the same operation just allocated.
Shapes broadcast like numpy; matmul supports stacked (batched) operands.
Gradients from repeated backward() calls accumulate. A Tensor is made
without gradients; only an operation on one that has them, or
`layers.ParamContainer.freeze`, sets `requires_grad`.

An affine map x @ W + b (`affine`) and an affine layer norm (`layer_norm`)
are one node each, so each keeps one activation rather than one per
primitive. A graph lives as long as its loss tensor. The trainers hand
`layers.Adam.minimize` a function that builds each step's loss, and only
that step holds it: at most one step's graph is alive at a time. Only
minimize lets a model part's parameters take gradients.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError


class ShapeError(ValueError):
    """Operand shapes are incompatible."""


class GraphError(RuntimeError):
    """Misuse of the autodiff graph (e.g. backward on a non-scalar)."""


_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327
LN_EPS = 1e-5  # added to layer_norm's variance

# Cephes ndtr.c: erf(x) = x T(x^2) / U(x^2) for |x| <= 1, and
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 < x < 8, exp(-x^2) R(x) / S(x) above.
# U, Q and S are monic; their leading 1 is left out, as in Cephes.
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
           5.01905042251180477414E0, 6.16021097993053585195E0,
           7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (2.26052863220117276590E0, 9.39603524938001434673E0,
           1.20489539808096656605E1, 1.70814450747565897222E1,
           9.60896809063285878198E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2  # log(DBL_MAX); erfc is 0 for x^2 above
_ERF_BLOCK = 1 << 15  # elements: 256 KB scratch arrays (see _erf)


def _polevl(x, coef):
    """Cephes polevl: coef[0] x^n + ... + coef[n] by Horner's rule."""
    y = x * coef[0]
    y += coef[1]
    for c in coef[2:]:
        y *= x
        y += c
    return y


def _p1evl(x, coef):
    """Cephes p1evl: polevl with a leading coefficient of 1 left out."""
    y = x + coef[0]
    for c in coef[1:]:
        y *= x
        y += c
    return y


def _erfc_far(a: np.ndarray) -> np.ndarray:
    """Cephes erfc of a 1-d array of a > 1."""
    a = np.minimum(a, 27.0)  # keeps P(a) finite; 27^2 > MAXLOG still gives 0
    sq = a * a
    e = np.array([math.exp(-t) for t in sq.tolist()])
    y = e * _polevl(a, _ERFC_P) / _p1evl(a, _ERFC_Q)
    mid = a >= 8.0
    if mid.any():
        v = a[mid]
        y[mid] = e[mid] * _polevl(v, _ERFC_R) / _p1evl(v, _ERFC_S)
        y[sq > _MAXLOG] = 0.0
    return y


def _erf(x: np.ndarray) -> None:
    """Overwrite the float64 array x, which is one block of memory as a
    fresh numpy result is (in any axis order), with erf(x), bit for bit
    as `erf` in Cephes `ndtr.c` computes it (the routine scipy.special.erf
    wraps): the same coefficients in the same order of operations.

    x T(x^2) / U(x^2) is evaluated on every element; it is odd in x
    exactly, as Cephes' erf(-x) = -erf(x) needs. The rare elements with
    |x| > 1 are then replaced by 1 - erfc(|x|) with x's sign. erfc's
    exp(-x^2) is `math.exp`, the C library's exp that Cephes calls, one
    element at a time: numpy's vectorised exp differs from it in the last
    bit on about 0.1% of inputs.

    The work goes in blocks of _ERF_BLOCK elements, and each result is
    written back into x, as scipy's `out=` does. glibc's allocator hands
    freed scratch arrays of a few MB back to the OS, and the next call
    faults their pages in again: about 670 minor faults per GELU forward
    of 90,112 elements with whole-array scratch, about 2 with 256 KB blocks,
    whose memory is reused."""
    flat = x.ravel(order="K")  # a view of that block
    # overflow and NaN arise only where |x| > 1, and those are replaced
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, flat.size, _ERF_BLOCK):
            v = flat[start:start + _ERF_BLOCK]
            z = v * v
            far = z > 1.0
            vf = v[far] if far.any() else None
            y = _polevl(z, _ERF_T)
            y *= v
            np.divide(y, _p1evl(z, _ERF_U), out=v)
            if vf is not None:
                v[far] = np.copysign(1.0 - _erfc_far(np.abs(vf)), vf)


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
        none."""
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

        flowing = {id(self): np.ones_like(self.data)}
        shared = set()  # parents whose gradient is an uncopied view
        for node in reversed(topo):
            g = flowing.pop(id(node), None)
            if g is None:
                continue
            if node._vjp is None:
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad += g
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                acc = flowing.get(id(parent))
                if acc is None:
                    if pg.base is not None:
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
        """Exact (erf-based) GELU."""
        a = self
        x = a.data
        cdf = x * _INV_SQRT2
        _erf(cdf)
        cdf += 1.0
        cdf *= 0.5
        out = x * cdf

        def vjp(g):
            pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
            return (g * (cdf + x * pdf),)

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
