"""Minimal reverse-mode automatic differentiation over dense 2-D float64 arrays.

Everything is a matrix: scalars are 1x1, vectors are mx1 or 1xn. Each op's
output keeps its input tensors and one vjp, which maps the output's gradient
to one gradient per input, in input order; ``backward`` walks these links in
reverse topological order, accumulates gradients additively and consumes the
graph as it goes.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    pass


class DomainError(ValueError):
    pass


class Tensor:
    """Dense 2-D float64 matrix with optional gradient tracking."""

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_vjp")

    def __init__(self, values, requires_grad=False):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim < 2:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ShapeError(f"Tensor must be 2-D, got shape {arr.shape}")
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()   # the op's input Tensors; _CONSUMED once walked
        self._vjp = None     # g -> one gradient per input, in input order

    @property
    def shape(self):
        return self.values.shape

    def item(self):
        if self.values.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.values[0, 0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of ops from one forward pass (for inspection/replay tests)."""

    def __init__(self):
        self.ops = []   # list of (kind, input tensors, output tensor)

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
_CONSUMED = ("consumed by backward",)   # the parents of a node backward has walked


def _make(kind, values, inputs, vjp):
    out = Tensor(values)
    if any(p.requires_grad or p._parents for p in inputs):
        out._parents, out._vjp = inputs, vjp
    if _ACTIVE_TAPE is not None:
        _ACTIVE_TAPE.ops.append((kind, inputs, out))
    return out


def _shapes(kind, *tensors):
    return f"op '{kind}' got shapes " + " and ".join(str(t.shape) for t in tensors)


def _check(kind, ok, *tensors):
    if not ok:
        raise ShapeError(_shapes(kind, *tensors))


# ---------------------------------------------------------------------------
# forward ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    _check("matmul", a.shape[1] == b.shape[0], a, b)
    return _make("matmul", a.values @ b.values, (a, b),
                 lambda g: (g @ b.values.T, a.values.T @ g))


def _broadcast_vjp(t, g):
    # reduce gradient over axes that were broadcast (row/column vectors only)
    if t.shape[0] == 1 and g.shape[0] != 1:
        g = g.sum(axis=0, keepdims=True)
    if t.shape[1] == 1 and g.shape[1] != 1:
        g = g.sum(axis=1, keepdims=True)
    return g


def _broadcastable(a, b):
    return all(da == db or 1 in (da, db) for da, db in zip(a.shape, b.shape))


def add(a: Tensor, b: Tensor) -> Tensor:
    _check("add", _broadcastable(a, b), a, b)
    return _make("add", a.values + b.values, (a, b),
                 lambda g: (_broadcast_vjp(a, g), _broadcast_vjp(b, g)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check("sub", _broadcastable(a, b), a, b)
    return _make("sub", a.values - b.values, (a, b),
                 lambda g: (_broadcast_vjp(a, g), -_broadcast_vjp(b, g)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check("mul", _broadcastable(a, b), a, b)
    return _make("mul", a.values * b.values, (a, b),
                 lambda g: (_broadcast_vjp(a, g * b.values), _broadcast_vjp(b, g * a.values)))


def scalar_mul(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _make("scalar_mul", a.values * c, (a,), lambda g: (g * c,))


def relu(a: Tensor) -> Tensor:
    mask = a.values > 0
    return _make("relu", np.where(mask, a.values, 0.0), (a,), lambda g: (g * mask,))


def sigmoid(a: Tensor) -> Tensor:
    s = 1.0 / (1.0 + np.exp(-a.values))
    return _make("sigmoid", s, (a,), lambda g: (g * s * (1.0 - s),))


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.values)
    return _make("exp", e, (a,), lambda g: (g * e,))


def log(a: Tensor) -> Tensor:
    if np.any(a.values <= 0):
        raise DomainError("log of non-positive value")
    return _make("log", np.log(a.values), (a,), lambda g: (g / a.values,))


def square(a: Tensor) -> Tensor:
    return _make("square", a.values ** 2, (a,), lambda g: (g * 2.0 * a.values,))


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax of each row of a plain array, shifted by the row's maximum."""
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def row_softmax(a: Tensor) -> Tensor:
    s = softmax(a.values)
    return _make("row_softmax", s, (a,),
                 lambda g: (s * (g - (g * s).sum(axis=1, keepdims=True)),))


def tsum(a: Tensor) -> Tensor:
    return _make("sum", np.array([[a.values.sum()]]), (a,),
                 lambda g: (np.full(a.shape, g[0, 0]),))


# ---------------------------------------------------------------------------
# GAE layers over a CSR neighbourhood view ``nbrs`` (``graph.Neighbors``):
# attention holds one row per entry and one column per head, node arrays hold
# head k in column block k; the pattern is symmetric, so an edge array
# transposed is that array [perm] on the same pattern. A layer is one op: it
# saves its input, parameters, attention and sign masks, and its one vjp
# recomputes the input's projections, then runs the vjps of the chain of
# steps it replaces in that chain's order, so gradients match it bit for bit.


def row_sum(x: np.ndarray, nbrs) -> np.ndarray:
    """Sum over each row's entries of an array with one row per entry."""
    return np.add.reduceat(x, nbrs.indptr[:-1], axis=0)


def _spmm(A: np.ndarray, X: np.ndarray, nbrs) -> np.ndarray:
    from scipy.sparse import csr_matrix     # here, so that importing vibgraph skips scipy
    m = len(nbrs.indptr) - 1
    return np.hstack([csr_matrix((A[:, k], nbrs.cols, nbrs.indptr), shape=(m, m)) @ Xk
                      for k, Xk in enumerate(np.split(X, A.shape[1], axis=1))])


def _sddmm(P: np.ndarray, Q: np.ndarray, nbrs, heads: int) -> np.ndarray:
    return np.stack([(Pk @ Qk.T)[nbrs.rows, nbrs.cols] for Pk, Qk
                     in zip(np.split(P, heads, axis=1), np.split(Q, heads, axis=1))], axis=1)


def _edge_softmax(E: np.ndarray, nbrs) -> np.ndarray:
    """Softmax of each column of ``E`` over each row's entries."""
    if (np.diff(nbrs.indptr) == 0).any():
        raise DomainError("edge softmax over a row with no entries")
    e = np.exp(E - np.maximum.reduceat(E, nbrs.indptr[:-1])[nbrs.rows])
    return e / row_sum(e, nbrs)[nbrs.rows]


def _edge_softmax_vjp(s: np.ndarray, g: np.ndarray, nbrs) -> np.ndarray:
    return s * (g - row_sum(g * s, nbrs)[nbrs.rows])


def _head_mean(P: np.ndarray, heads: int, act: str):
    """The mean over heads of act(P), ``act`` "relu" or "elu", and the factor
    act's vjp scales a gradient by: the sign mask, or 1 and exp(P) for ELU."""
    mask = P > 0
    if act == "relu":
        P, dact = np.where(mask, P, 0.0), mask
    else:
        ex = np.exp(np.minimum(P, 0.0))
        P, dact = np.where(mask, P, ex - 1.0), np.where(mask, 1.0, ex)
    return P.reshape(len(P), heads, -1).mean(axis=1), dact


def gat_layer(H: Tensor, nbrs, W: Tensor, a_src: Tensor, a_dst: Tensor, slope: float):
    """One multi-head graph-attention layer. Head k projects P = H W_k (column
    block k of W), scores entry (i, j) LeakyReLU(P[i] . a_src[:, k] + P[j] .
    a_dst[:, k]), and outputs the ReLU of the edge-softmax-weighted sum of P
    over row i's entries; the heads are averaged. Returns (output, attention
    as a Tensor with no parents)."""
    h, heads = a_src.shape
    _check("gat_layer", H.shape[1] == W.shape[0] and W.shape[1] == h * heads
           and a_dst.shape == a_src.shape and len(H.values) == len(nbrs.indptr) - 1,
           H, W, a_src, a_dst)
    Hv, Wv, av, bv = H.values, W.values, a_src.values, a_dst.values
    slope = float(slope)
    XW = Hv @ Wv
    X3 = XW.reshape(-1, heads, h)
    E = (np.einsum("ikh,hk->ik", X3, av)[nbrs.rows]
         + np.einsum("ikh,hk->ik", X3, bv)[nbrs.cols])
    mask = E > 0
    A = _edge_softmax(np.where(mask, E, slope * E), nbrs)
    out, dact = _head_mean(_spmm(A, XW, nbrs), heads, "relu")

    def vjp(g):
        XW = Hv @ Wv
        X3 = XW.reshape(-1, heads, h)
        gP = np.tile(g / heads, heads) * dact
        gE = _edge_softmax_vjp(A, _sddmm(gP, XW, nbrs, heads), nbrs) * np.where(mask, 1.0, slope)
        gu, gv = row_sum(gE, nbrs), row_sum(gE[nbrs.perm], nbrs)
        ga_src, ga_dst = np.einsum("ikh,ik->hk", X3, gu), np.einsum("ikh,ik->hk", X3, gv)
        del XW, X3
        gXW = _spmm(A[nbrs.perm], gP, nbrs)
        del gP
        gXW += (gu[:, :, None] * av.T).reshape(gXW.shape)     # the aggregation's share,
        gXW += (gv[:, :, None] * bv.T).reshape(gXW.shape)     # then a_src's, then a_dst's
        return gXW @ Wv.T, Hv.T @ gXW, ga_src, ga_dst
    return _make("gat_layer", out, (H, W, a_src, a_dst), vjp), Tensor(A)


def transformer_layer(H: Tensor, nbrs, Wq: Tensor, Wk: Tensor, Wv: Tensor, heads: int,
                      scale: float):
    """One multi-head graph-transformer layer. Head k projects Q, K, V = H Wq_k,
    H Wk_k, H Wv_k (column block k of each), scores entry (i, j) scale * Q[i]
    . K[j], and outputs the ELU of the edge-softmax-weighted sum of V over row
    i's entries; the heads are averaged. Returns (output, attention as a
    Tensor with no parents)."""
    _check("transformer_layer", Wq.shape == Wk.shape == Wv.shape and H.shape[1] == Wq.shape[0]
           and Wq.shape[1] % heads == 0 and len(H.values) == len(nbrs.indptr) - 1,
           H, Wq, Wk, Wv)
    Hv, Wqv, Wkv, Wvv = H.values, Wq.values, Wk.values, Wv.values
    scale = float(scale)
    A = _edge_softmax(_sddmm(Hv @ Wqv, Hv @ Wkv, nbrs, heads) * scale, nbrs)
    out, dact = _head_mean(_spmm(A, Hv @ Wvv, nbrs), heads, "elu")

    def vjp(g):
        gP = np.tile(g / heads, heads) * dact
        gS = _edge_softmax_vjp(A, _sddmm(gP, Hv @ Wvv, nbrs, heads), nbrs) * scale
        gV = _spmm(A[nbrs.perm], gP, nbrs)
        del gP
        gQ = _spmm(gS, Hv @ Wkv, nbrs)
        gK = _spmm(gS[nbrs.perm], Hv @ Wqv, nbrs)
        return (gQ @ Wqv.T + gK @ Wkv.T + gV @ Wvv.T,     # (via Q + via K) + via V
                Hv.T @ gQ, Hv.T @ gK, Hv.T @ gV)
    return _make("transformer_layer", out, (H, Wq, Wk, Wv), vjp), Tensor(A)


# ---------------------------------------------------------------------------
# backward


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad tensor reachable from ``loss``.

    The graph is consumed as it is walked: each op's vjp, and the arrays it
    holds, are freed once it has run, and each gradient once it has been
    handed on. A second backward through it is refused, and so is a vjp that
    returns a gradient too few or too many.
    """
    if loss.shape != (1, 1):
        raise ShapeError(f"backward expects a 1x1 scalar loss, got shape {loss.shape}")

    # reverse topological order over the input DAG
    order, seen = [], set()
    stack = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if node._parents is _CONSUMED:
            raise ValueError("backward through a graph already consumed by backward")
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    # a parent still to be walked is held by ``order``, so its id stays valid
    grads = {id(loss): np.ones((1, 1))}
    while order:
        node = order.pop()
        g = grads.pop(id(node))
        parents, vjp = node._parents, node._vjp
        if node.requires_grad:
            node.grad = g if node.grad is None else node.grad + g
        if parents:
            node._parents, node._vjp = _CONSUMED, None
            for parent, pg in zip(parents, vjp(g), strict=True):
                key = id(parent)
                grads[key] = grads[key] + pg if key in grads else pg
        node = g = parents = parent = vjp = pg = None    # free them before the next vjp


# ---------------------------------------------------------------------------
# Adam


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class AdamState:
    """Bias-corrected adaptive-moment optimizer state over a list of parameters."""

    def __init__(self, params, lr=1e-3):
        self.params = list(params)
        self.lr = lr
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
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for k, p in enumerate(state.params):
        g = p.grad
        state.m[k] = b1 * state.m[k] + (1 - b1) * g
        state.v[k] = b2 * state.v[k] + (1 - b2) * g * g
        m_hat = state.m[k] / (1 - b1 ** t)
        v_hat = state.v[k] / (1 - b2 ** t)
        p.values -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        p.grad = None
