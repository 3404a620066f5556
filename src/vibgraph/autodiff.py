"""Minimal reverse-mode automatic differentiation over dense 2-D float64 arrays.

Everything is a matrix: scalars are 1x1, vectors are mx1 or 1xn. Ops build a
dynamic tape (parent links on the output tensors); ``backward`` walks it in
reverse topological order and accumulates gradients additively.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    pass


class DomainError(ValueError):
    pass


class Tensor:
    """Dense 2-D float64 matrix with optional gradient tracking."""

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_op")

    def __init__(self, values, requires_grad=False):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ShapeError(f"Tensor must be 2-D, got shape {arr.shape}")
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()   # tuple of (parent Tensor, vjp callable)
        self._op = "leaf"

    @property
    def shape(self):
        return self.values.shape

    def zero_grad(self):
        self.grad = None

    def item(self):
        if self.values.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.values[0, 0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of ops from one forward pass (for inspection/replay tests)."""

    def __init__(self):
        self.ops = []   # list of (kind, input tensors, output tensor)

    def record(self, kind, inputs, output):
        self.ops.append((kind, tuple(inputs), output))

    def __enter__(self):
        global _ACTIVE_TAPE
        self._prev = _ACTIVE_TAPE
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = self._prev
        return False


_ACTIVE_TAPE = None


def _make(kind, values, parents):
    out = Tensor(values)
    track = any(p.requires_grad or p._parents for p, _ in parents)
    if track:
        out._parents = tuple(parents)
    out._op = kind
    if _ACTIVE_TAPE is not None:
        _ACTIVE_TAPE.record(kind, [p for p, _ in parents], out)
    return out


def _shapes(kind, *tensors):
    return f"op '{kind}' got shapes " + " and ".join(str(t.shape) for t in tensors)


# ---------------------------------------------------------------------------
# forward ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ShapeError(_shapes("matmul", a, b))
    out = _make("matmul", a.values @ b.values,
                [(a, lambda g: g @ b.values.T),
                 (b, lambda g: a.values.T @ g)])
    return out


def _broadcast_vjp(t, g):
    # reduce gradient over axes that were broadcast (row/column vectors only)
    if t.shape[0] == 1 and g.shape[0] != 1:
        g = g.sum(axis=0, keepdims=True)
    if t.shape[1] == 1 and g.shape[1] != 1:
        g = g.sum(axis=1, keepdims=True)
    return g


def _broadcastable(a, b):
    for da, db in zip(a.shape, b.shape):
        if da != db and da != 1 and db != 1:
            return False
    return True


def add(a: Tensor, b: Tensor) -> Tensor:
    if not _broadcastable(a, b):
        raise ShapeError(_shapes("add", a, b))
    return _make("add", a.values + b.values,
                 [(a, lambda g: _broadcast_vjp(a, g)),
                  (b, lambda g: _broadcast_vjp(b, g))])


def sub(a: Tensor, b: Tensor) -> Tensor:
    if not _broadcastable(a, b):
        raise ShapeError(_shapes("sub", a, b))
    return _make("sub", a.values - b.values,
                 [(a, lambda g: _broadcast_vjp(a, g)),
                  (b, lambda g: -_broadcast_vjp(b, g))])


def mul(a: Tensor, b: Tensor) -> Tensor:
    if not _broadcastable(a, b):
        raise ShapeError(_shapes("mul", a, b))
    return _make("mul", a.values * b.values,
                 [(a, lambda g: _broadcast_vjp(a, g * b.values)),
                  (b, lambda g: _broadcast_vjp(b, g * a.values))])


def scalar_mul(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _make("scalar_mul", a.values * c, [(a, lambda g: g * c)])


def relu(a: Tensor) -> Tensor:
    mask = a.values > 0
    return _make("relu", np.where(mask, a.values, 0.0),
                 [(a, lambda g: g * mask)])


def leaky_relu(a: Tensor, slope: float) -> Tensor:
    mask = a.values > 0
    return _make("leaky_relu", np.where(mask, a.values, slope * a.values),
                 [(a, lambda g: g * np.where(mask, 1.0, slope))])


def elu(a: Tensor, alpha: float = 1.0) -> Tensor:
    mask = a.values > 0
    ex = np.exp(np.minimum(a.values, 0.0))
    out = np.where(mask, a.values, alpha * (ex - 1.0))
    return _make("elu", out, [(a, lambda g: g * np.where(mask, 1.0, alpha * ex))])


def sigmoid(a: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-a.values))
    return _make("sigmoid", s, [(a, lambda g: g * s * (1.0 - s))])


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.values)
    return _make("exp", e, [(a, lambda g: g * e)])


def log(a: Tensor) -> Tensor:
    if np.any(a.values <= 0):
        raise DomainError("log of non-positive value")
    return _make("log", np.log(a.values), [(a, lambda g: g / a.values)])


def square(a: Tensor) -> Tensor:
    return _make("square", a.values ** 2, [(a, lambda g: g * 2.0 * a.values)])


def row_softmax(a: Tensor) -> Tensor:
    z = a.values - a.values.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=1, keepdims=True)
    return _make("row_softmax", s,
                 [(a, lambda g: s * (g - (g * s).sum(axis=1, keepdims=True)))])


def masked_neighbor_softmax(a: Tensor, mask: np.ndarray) -> Tensor:
    """Row softmax restricted to entries where ``mask`` is True.

    Masked entries get probability exactly 0. Every row must have at least
    one unmasked entry.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != a.shape:
        raise ShapeError(f"op 'masked_neighbor_softmax' got shapes {a.shape} and mask {mask.shape}")
    if not mask.any(axis=1).all():
        raise DomainError("masked_neighbor_softmax: a row has no unmasked entries")
    z = np.where(mask, a.values, -np.inf)
    z = z - z.max(axis=1, keepdims=True)
    e = np.where(mask, np.exp(z), 0.0)
    s = e / e.sum(axis=1, keepdims=True)
    return _make("masked_neighbor_softmax", s,
                 [(a, lambda g: s * (g - (g * s).sum(axis=1, keepdims=True)))])


def cols(a: Tensor, lo: int, hi: int) -> Tensor:
    """Columns ``lo:hi`` of ``a``; the gradient lands in those columns only."""
    if not 0 <= lo < hi <= a.shape[1]:
        raise ShapeError(f"op 'cols' got columns {lo}:{hi} of shape {a.shape}")

    def vjp(g):
        full = np.zeros(a.shape)
        full[:, lo:hi] = g
        return full

    return _make("cols", a.values[:, lo:hi].copy(), [(a, vjp)])


def tsum(a: Tensor) -> Tensor:
    return _make("sum", np.array([[a.values.sum()]]),
                 [(a, lambda g: np.full(a.shape, g[0, 0]))])


def tmean(a: Tensor) -> Tensor:
    n = a.values.size
    return _make("mean", np.array([[a.values.mean()]]),
                 [(a, lambda g: np.full(a.shape, g[0, 0] / n))])


def transpose(a: Tensor) -> Tensor:
    return _make("transpose", a.values.T.copy(), [(a, lambda g: g.T)])


# ---------------------------------------------------------------------------
# backward


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad tensor reachable from ``loss``."""
    if loss.shape != (1, 1):
        raise ShapeError(f"backward expects a 1x1 scalar loss, got shape {loss.shape}")

    # reverse topological order over the parent DAG
    order, seen = [], set()
    stack = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    grads = {id(loss): np.ones((1, 1))}
    for node in reversed(order):
        g = grads.get(id(node))
        if g is None:
            continue
        if node.requires_grad:
            node.grad = g if node.grad is None else node.grad + g
        for parent, vjp in node._parents:
            pg = vjp(g)
            if id(parent) in grads:
                grads[id(parent)] = grads[id(parent)] + pg
            else:
                grads[id(parent)] = pg


def grad_check(f, x: Tensor, h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps a Tensor to a scalar Tensor and must be deterministic
    (seed any randomness before each call).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    x.zero_grad()
    loss = f(x)
    backward(loss)
    analytic = x.grad if x.grad is not None else np.zeros(x.shape)

    numeric = np.zeros(x.shape)
    base = x.values.copy()
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            x.values = base.copy()
            x.values[i, j] += h
            up = f(x).item()
            x.values = base.copy()
            x.values[i, j] -= h
            dn = f(x).item()
            if not (np.isfinite(up) and np.isfinite(dn)):
                raise DomainError("function non-finite at perturbed point")
            numeric[i, j] = (up - dn) / (2.0 * h)
    x.values = base

    denom = np.maximum(1.0, np.abs(analytic))
    return float(np.max(np.abs(analytic - numeric) / denom))


# ---------------------------------------------------------------------------
# Adam


class AdamState:
    """Bias-corrected adaptive-moment optimizer state over a list of parameters."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros(p.shape) for p in self.params]
        self.v = [np.zeros(p.shape) for p in self.params]


def adam_step(state: AdamState) -> None:
    """One Adam update over all parameters; zeroes grads afterwards."""
    for p in state.params:
        if p.grad is None:
            raise ValueError("adam_step: parameter has no gradient")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    for k, p in enumerate(state.params):
        g = p.grad
        state.m[k] = b1 * state.m[k] + (1 - b1) * g
        state.v[k] = b2 * state.v[k] + (1 - b2) * g * g
        m_hat = state.m[k] / (1 - b1 ** t)
        v_hat = state.v[k] / (1 - b2 ** t)
        p.values -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
        p.grad = None
