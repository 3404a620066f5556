"""Unit tests for the reverse-mode autodiff engine.

Gradients are checked two ways: closed-form derivatives where they are
textbook (sigmoid, softmax), and central differences via grad_check for
composite expressions.
"""

import weakref

import numpy as np
import pytest

from vibgraph import autodiff as ad
from vibgraph import gae
from vibgraph.graph import FaultGraph, Neighbors

from gradcheck import grad_check


def t(values, rg=False):
    return ad.Tensor(values, requires_grad=rg)


class TestTensor:
    def test_scalar_coerced_to_1x1(self):
        assert t(3.0).shape == (1, 1)

    def test_vector_coerced_to_row(self):
        assert t([1.0, 2.0, 3.0]).shape == (1, 3)

    def test_3d_rejected(self):
        with pytest.raises(ad.ShapeError):
            t(np.zeros((2, 2, 2)))

    def test_item_on_non_scalar(self):
        with pytest.raises(ad.ShapeError):
            t([[1.0, 2.0]]).item()

    def test_values_are_float64(self):
        assert t([[1, 2]]).values.dtype == np.float64


class TestForwardValues:
    def test_matmul(self):
        a, b = t([[1.0, 2.0]]), t([[3.0], [4.0]])
        assert ad.matmul(a, b).item() == 11.0

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.matmul(t(np.zeros((2, 3))), t(np.zeros((2, 3))))

    def test_add_row_broadcast(self):
        out = ad.add(t(np.zeros((2, 3))), t([[1.0, 2.0, 3.0]]))
        np.testing.assert_array_equal(out.values, [[1, 2, 3], [1, 2, 3]])

    def test_add_col_broadcast(self):
        out = ad.add(t(np.zeros((2, 2))), t([[5.0], [7.0]]))
        np.testing.assert_array_equal(out.values, [[5, 5], [7, 7]])

    def test_add_incompatible(self):
        with pytest.raises(ad.ShapeError):
            ad.add(t(np.zeros((2, 3))), t(np.zeros((3, 2))))

    def test_relu(self):
        out = ad.relu(t([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out.values, [[0, 0, 2]])

    def test_leaky_relu(self):
        # with W = 1 and a_src = 0, row 0 of the edge 0-1 scores H = -1 and 2,
        # LeakyReLU'd to -0.2 and 2
        _, A = ad.gat_layer(t([[-1.0], [2.0]]), nbrs_of([(0, 1, 0.5)], 2), t([[1.0]]),
                            t([[0.0]]), t([[1.0]]), slope=0.2)
        e = np.exp([-0.2, 2.0])
        np.testing.assert_allclose(A.values[:2, 0], e / e.sum())

    def test_elu_negative_branch(self):
        # one node on its self-loop: attention 1, so the output is ELU(H Wv)
        one = t([[1.0]])
        out, _ = ad.transformer_layer(t([[-1.0]]), nbrs_of([], 1), one, one, one, 1, 1.0)
        np.testing.assert_allclose(out.values, [[np.exp(-1.0) - 1.0]])

    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(t(0.0)).item() == 0.5

    def test_log_rejects_nonpositive(self):
        with pytest.raises(ad.DomainError):
            ad.log(t([[0.0]]))

    def test_row_softmax_rows_sum_to_one(self):
        out = ad.row_softmax(t(np.random.default_rng(0).normal(size=(4, 5))))
        np.testing.assert_allclose(out.values.sum(axis=1), np.ones(4), atol=1e-14)

    def test_row_softmax_shift_invariant(self):
        x = np.random.default_rng(1).normal(size=(3, 4))
        a = ad.row_softmax(t(x)).values
        b = ad.row_softmax(t(x + 100.0)).values
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_masked_softmax_zeros_and_sums(self):
        nbrs = nbrs_of()
        one = t([[1.0]])
        _, A = ad.gat_layer(t(np.ones((5, 1))), nbrs, one, one, one, 0.2)   # every score 2
        S = dense(nbrs, A.values[:, 0])
        assert (S[dense(nbrs, 1.0) == 0] == 0.0).all()
        np.testing.assert_allclose(S.sum(axis=1), np.ones(5), atol=1e-14)
        np.testing.assert_allclose(S[0], [1 / 3, 1 / 3, 0, 1 / 3, 0], atol=1e-15)

    def test_masked_softmax_empty_row_rejected(self):
        # row 1 holds no entry, not even its self-loop
        nbrs = Neighbors(indptr=np.array([0, 1, 1]), rows=np.array([0]),
                         cols=np.array([0]), perm=np.array([0]))
        x, w = t([[1.0], [2.0]]), t([[1.0]])
        with pytest.raises(ad.DomainError):
            ad.gat_layer(x, nbrs, w, w, w, 0.2)
        with pytest.raises(ad.DomainError):
            ad.transformer_layer(x, nbrs, w, w, w, 1, 1.0)

    def test_sum_mean(self):
        x = t([[1.0, 2.0], [3.0, 4.0]])
        assert ad.tsum(x).item() == 10.0
        # on self-loops alone, 2 heads with W = I average x's ReLU'd columns
        zero = t(np.zeros((1, 2)))
        mean, _ = ad.gat_layer(x, nbrs_of([], 2), t(np.eye(2)), zero, zero, 0.2)
        np.testing.assert_array_equal(mean.values, [[1.5], [3.5]])


# a path 0-1-2, node 3 linked to 0, node 4 isolated
EDGES = [(0, 1, 0.5), (0, 3, 0.5), (1, 2, 0.5)]


def nbrs_of(edges=EDGES, m=5):
    return FaultGraph(node_features=np.zeros((m, 1)), node_labels=np.zeros(m, int),
                      edges=edges).neighbors()


def dense(nbrs, values):
    """m x m matrix holding ``values`` at the entries of ``nbrs``, 0 elsewhere."""
    m = len(nbrs.indptr) - 1
    out = np.zeros((m, m))
    out[nbrs.rows, nbrs.cols] = values
    return out


def blocks(x, heads):
    return np.split(x, heads, axis=1)


def dense_softmax(nbrs, S):
    """Row softmax of the m x m scores ``S`` over the entries of ``nbrs``."""
    S = np.where(dense(nbrs, 1.0) > 0, S, -np.inf)
    S = np.exp(S - S.max(axis=1, keepdims=True))
    return S / S.sum(axis=1, keepdims=True)


def dense_gat(H, W, a_src, a_dst, nbrs, slope):
    """``ad.gat_layer`` on m x m matrices, one head at a time: the output and
    the per-head attention."""
    outs, attns = [], []
    for k, P in enumerate(blocks(H @ W, a_src.shape[1])):
        E = P @ a_src[:, [k]] + P @ a_dst[:, k]
        attns.append(dense_softmax(nbrs, np.where(E > 0, E, slope * E)))
        outs.append(np.maximum(attns[-1] @ P, 0.0))
    return np.mean(outs, axis=0), attns


def dense_transformer(H, Wq, Wk, Wv, nbrs, heads, scale):
    """``ad.transformer_layer`` on m x m matrices, one head at a time: the
    output and the per-head attention."""
    outs, attns = [], []
    for Q, K, V in zip(*(blocks(H @ P, heads) for P in (Wq, Wk, Wv))):
        attns.append(dense_softmax(nbrs, scale * (Q @ K.T)))
        P = attns[-1] @ V
        outs.append(np.where(P > 0, P, np.expm1(np.minimum(P, 0.0))))
    return np.mean(outs, axis=0), attns


def assert_layer_matches(nbrs, result, oracle):
    """A layer op's (output, attention) against a dense oracle's."""
    (out, A), (expect, attns) = result, oracle
    assert not A._parents and A.shape == (len(nbrs.rows), len(attns))
    for k, Ak in enumerate(attns):
        np.testing.assert_allclose(dense(nbrs, A.values[:, k]), Ak, atol=1e-15)
    np.testing.assert_allclose(out.values, expect, atol=1e-14)


class TestEdgeOps:
    """Each step of the two layer ops against the dense oracles, on a graph
    with an isolated node."""

    def test_head_dot(self):
        # head k scores column block k of H W against column k of a_src and a_dst
        nbrs = nbrs_of()
        rng = np.random.default_rng(0)
        H, W, a_src, a_dst = (rng.normal(size=s) for s in ((5, 4), (4, 6), (2, 3), (2, 3)))
        assert_layer_matches(nbrs, ad.gat_layer(t(H), nbrs, t(W), t(a_src), t(a_dst), 0.2),
                             dense_gat(H, W, a_src, a_dst, nbrs, 0.2))
        with pytest.raises(ad.ShapeError):
            ad.gat_layer(t(H), nbrs, t(W), t(np.zeros((3, 3))), t(np.zeros((3, 3))), 0.2)
        with pytest.raises(ad.ShapeError):
            ad.gat_layer(t(H), nbrs, t(W[:3]), t(a_src), t(a_dst), 0.2)

    def test_edge_sum(self):
        # GAT scores: head k of entry (i, j) is LeakyReLU(u[i, k] + v[j, k]), u from
        # a_src and v from a_dst; with a_src = 0 every row scores the same v[j]
        nbrs = nbrs_of()
        rng = np.random.default_rng(0)
        H, W, a_src, a_dst = (rng.normal(size=s) for s in ((5, 3), (3, 4), (2, 2), (2, 2)))
        assert_layer_matches(nbrs, ad.gat_layer(t(H), nbrs, t(W), t(a_src), t(a_dst), 0.2),
                             dense_gat(H, W, a_src, a_dst, nbrs, 0.2))
        _, A = ad.gat_layer(t(H), nbrs, t(W), t(0 * a_src), t(a_dst), 0.2)
        v = np.column_stack([P @ a_dst[:, k] for k, P in enumerate(blocks(H @ W, 2))])
        e = np.exp(np.where(v > 0, v, 0.2 * v))[nbrs.cols]
        np.testing.assert_allclose(A.values, e / ad.row_sum(e, nbrs)[nbrs.rows], atol=1e-15)
        with pytest.raises(ad.ShapeError):
            ad.gat_layer(t(H[:4]), nbrs, t(W), t(a_src), t(a_dst), 0.2)
        with pytest.raises(ad.ShapeError):
            ad.gat_layer(t(H), nbrs, t(W), t(a_src), t(a_dst[:, :1]), 0.2)

    def test_edge_softmax_per_row_and_head(self):
        nbrs = nbrs_of()
        rng = np.random.default_rng(1)
        H, W, a_src, a_dst = (rng.normal(size=s) for s in ((5, 2), (2, 3), (1, 3), (1, 3)))
        Wq, Wk, Wv = (rng.normal(size=(2, 6)) for _ in range(3))
        for _, A in (ad.gat_layer(t(H), nbrs, t(W), t(a_src), t(a_dst), 0.2),
                     ad.transformer_layer(t(H), nbrs, t(Wq), t(Wk), t(Wv), 3, 0.5),
                     ad.transformer_layer(t(H), nbrs, t(Wq), t(Wk), t(Wv), 3, 300.0)):
            assert A.shape == (len(nbrs.rows), 3)
            np.testing.assert_allclose(ad.row_sum(A.values, nbrs), 1.0, atol=1e-15)
            assert A.values[nbrs.rows == 4].tolist() == [[1.0, 1.0, 1.0]]  # isolated: self only
        # with slope 1 the scores are u[i] + v[j]: neither a per-row offset (a_src)
        # nor a global one (a constant column of H) moves the softmax
        plain = ad.gat_layer(t(H), nbrs, t(W), t(a_src), t(a_dst), 1.0)[1].values
        offset = ad.gat_layer(t(np.hstack([H, np.ones((5, 1))])), nbrs,
                              t(np.vstack([W, np.full((1, 3), 500.0)])), t(a_src), t(a_dst),
                              1.0)[1].values
        np.testing.assert_allclose(offset, plain, atol=1e-12)
        np.testing.assert_allclose(ad.gat_layer(t(H), nbrs, t(W), t(0 * a_src), t(a_dst),
                                                1.0)[1].values, plain, atol=1e-15)

    def test_spmm(self):
        # each output is act(attention-weighted sum of the projected neighbours),
        # ReLU for GAT, ELU (both branches) for the transformer, averaged over heads
        nbrs = nbrs_of()
        rng = np.random.default_rng(2)
        H, W, a_src, a_dst = (rng.normal(size=s) for s in ((5, 3), (3, 6), (3, 2), (3, 2)))
        Wq, Wk, Wv = (rng.normal(size=(3, 6)) for _ in range(3))
        assert_layer_matches(nbrs, ad.gat_layer(t(H), nbrs, t(W), t(a_src), t(a_dst), 0.2),
                             dense_gat(H, W, a_src, a_dst, nbrs, 0.2))
        out, A = ad.transformer_layer(t(H), nbrs, t(Wq), t(Wk), t(Wv), 2, 0.5)
        assert_layer_matches(nbrs, (out, A), dense_transformer(H, Wq, Wk, Wv, nbrs, 2, 0.5))
        assert (out.values < 0).any() and (out.values > 0).any()
        with pytest.raises(ad.ShapeError):
            ad.transformer_layer(t(H[:4]), nbrs, t(Wq), t(Wk), t(Wv), 2, 0.5)
        with pytest.raises(ad.ShapeError):
            ad.transformer_layer(t(H), nbrs, t(Wq), t(Wk), t(Wv[:, :4]), 2, 0.5)

    def test_sddmm(self):
        # transformer scores: head k of entry (i, j) is scale * Q[i, block k] . K[j, block k]
        nbrs = nbrs_of()
        rng = np.random.default_rng(3)
        H, Wq, Wk, Wv = (rng.normal(size=s) for s in ((5, 2), (2, 6), (2, 6), (2, 6)))
        assert_layer_matches(nbrs, ad.transformer_layer(t(H), nbrs, t(Wq), t(Wk), t(Wv), 3, 0.5),
                             dense_transformer(H, Wq, Wk, Wv, nbrs, 3, 0.5))
        with pytest.raises(ad.ShapeError):
            ad.transformer_layer(t(H), nbrs, t(Wq), t(Wk), t(Wv), 4, 0.5)
        with pytest.raises(ad.ShapeError):
            ad.transformer_layer(t(H[:, :1]), nbrs, t(Wq), t(Wk), t(Wv), 3, 0.5)

    def test_head_mean(self):
        # on self-loops alone the attention is 1, so with Wv = I the transformer
        # averages H's head blocks (ELU leaves them, as none is negative)
        X = np.arange(12.0).reshape(2, 6)
        eye = t(np.eye(6))
        out, _ = ad.transformer_layer(t(X), nbrs_of([], 2), eye, eye, eye, 3, 1.0)
        np.testing.assert_allclose(out.values, (X[:, 0:2] + X[:, 2:4] + X[:, 4:6]) / 3)
        with pytest.raises(ad.ShapeError):
            ad.gat_layer(t(X), nbrs_of([], 2), eye, t(np.zeros((2, 4))), t(np.zeros((2, 4))),
                         0.2)


# The chains of step ops that the layer ops replace, written as they were: the
# reference for the layer ops' outputs and gradients, bit for bit.

def chain_head_dot(X, a):
    h, heads = a.shape
    X3 = X.values.reshape(-1, heads, h)
    return ad._make("head_dot", np.einsum("ikh,hk->ik", X3, a.values), (X, a),
                    lambda g: ((g[:, :, None] * a.values.T).reshape(X.shape),
                               np.einsum("ikh,ik->hk", X3, g)))


def chain_edge_sum(u, v, nbrs):
    return ad._make("edge_sum", u.values[nbrs.rows] + v.values[nbrs.cols], (u, v),
                    lambda g: (ad.row_sum(g, nbrs), ad.row_sum(g[nbrs.perm], nbrs)))


def chain_leaky_relu(a, slope):
    mask = a.values > 0
    return ad._make("leaky_relu", np.where(mask, a.values, slope * a.values), (a,),
                    lambda g: (g * np.where(mask, 1.0, slope),))


def chain_elu(a, alpha=1.0):
    mask = a.values > 0
    ex = np.exp(np.minimum(a.values, 0.0))
    out = np.where(mask, a.values, alpha * (ex - 1.0))
    return ad._make("elu", out, (a,), lambda g: (g * np.where(mask, 1.0, alpha * ex),))


def chain_edge_softmax(E, nbrs):
    e = np.exp(E.values - np.maximum.reduceat(E.values, nbrs.indptr[:-1])[nbrs.rows])
    s = e / ad.row_sum(e, nbrs)[nbrs.rows]
    return ad._make("edge_softmax", s, (E,),
                    lambda g: (s * (g - ad.row_sum(g * s, nbrs)[nbrs.rows]),))


def chain_spmm(A, X, nbrs):
    heads = A.shape[1]
    return ad._make("spmm", ad._spmm(A.values, X.values, nbrs), (A, X),
                    lambda g: (ad._sddmm(g, X.values, nbrs, heads),
                               ad._spmm(A.values[nbrs.perm], g, nbrs)))


def chain_sddmm(P, Q, nbrs, heads):
    return ad._make("sddmm", ad._sddmm(P.values, Q.values, nbrs, heads), (P, Q),
                    lambda g: (ad._spmm(g, Q.values, nbrs),
                               ad._spmm(g[nbrs.perm], P.values, nbrs)))


def chain_head_mean(X, heads):
    return ad._make("head_mean", X.values.reshape(len(X.values), heads, -1).mean(axis=1), (X,),
                    lambda g: (np.tile(g / heads, heads),))


def chain_gat_layer(H, nbrs, W, a_src, a_dst):
    XW = ad.matmul(H, W)
    E = chain_edge_sum(chain_head_dot(XW, a_src), chain_head_dot(XW, a_dst), nbrs)
    A = chain_edge_softmax(chain_leaky_relu(E, gae.LEAKY_SLOPE), nbrs)
    return chain_head_mean(ad.relu(chain_spmm(A, XW, nbrs)), A.shape[1]), A


def chain_transformer_conv_layer(H, nbrs, Wq, Wk, Wv):
    d_h = Wq.shape[0]
    heads = Wq.shape[1] // d_h
    Q, K, V = (ad.matmul(H, P) for P in (Wq, Wk, Wv))
    scores = ad.scalar_mul(chain_sddmm(Q, K, nbrs, heads), 1.0 / np.sqrt(d_h))
    A = chain_edge_softmax(scores, nbrs)
    return chain_head_mean(chain_elu(chain_spmm(A, V, nbrs)), heads), A


class TestFusion:
    def test_layers_match_the_primitive_chain_bit_for_bit(self):
        rng = np.random.default_rng(11)
        m = 14
        edges = [(i, j, 0.5) for i in range(m) for j in range(i + 1, m - 2)
                 if rng.random() < 0.3]                     # the last two nodes isolated
        nbrs = nbrs_of(edges, m)
        values = [rng.normal(size=s) for s in
                  ((m, 4), (4, 15), (5, 3), (5, 3), (5, 10), (5, 10), (5, 10))]
        G = rng.normal(size=(m, 5))
        runs = []
        for gat, transformer in ((gae.gat_layer, gae.transformer_conv_layer),
                                 (chain_gat_layer, chain_transformer_conv_layer)):
            H, W, a_src, a_dst, Wq, Wk, Wv = tensors = [t(x, rg=True) for x in values]
            H1, A1 = gat(H, nbrs, W, a_src, a_dst)
            H2, A2 = transformer(H1, nbrs, Wq, Wk, Wv)
            outputs = [x.values for x in (H1, A1, H2, A2)]
            ad.backward(ad.tsum(ad.mul(H2, t(G))))
            runs.append((outputs, [x.grad for x in tensors]))
        (fused_out, fused_grads), (chain_out, chain_grads) = runs
        assert (fused_out[2] < 0).any() and (fused_out[2] > 0).any()   # both ELU branches
        for a, b in zip(fused_out + fused_grads, chain_out + chain_grads):
            assert np.array_equal(a, b)


class TestBackward:
    def test_sum_of_squares_gradient(self):
        x = t([[1.0, -2.0], [3.0, 0.5]], rg=True)
        ad.backward(ad.tsum(ad.square(x)))
        np.testing.assert_allclose(x.grad, 2.0 * x.values)

    def test_sigmoid_derivative_at_zero(self):
        x = t(0.0, rg=True)
        ad.backward(ad.tsum(ad.sigmoid(x)))
        np.testing.assert_allclose(x.grad, [[0.25]])

    def test_matmul_gradients(self):
        a = t([[1.0, 2.0], [3.0, 4.0]], rg=True)
        b = t([[5.0, 6.0], [7.0, 8.0]], rg=True)
        ad.backward(ad.tsum(ad.matmul(a, b)))
        np.testing.assert_allclose(a.grad, np.ones((2, 2)) @ b.values.T)
        np.testing.assert_allclose(b.grad, a.values.T @ np.ones((2, 2)))

    def test_broadcast_add_reduces_gradient(self):
        bias = t([[1.0, 2.0, 3.0]], rg=True)
        x = t(np.zeros((4, 3)))
        ad.backward(ad.tsum(ad.add(x, bias)))
        np.testing.assert_array_equal(bias.grad, [[4.0, 4.0, 4.0]])

    def test_grad_accumulates_over_reuse(self):
        x = t([[2.0]], rg=True)
        y = ad.add(ad.square(x), ad.square(x))   # 2x^2, dy/dx = 4x
        ad.backward(ad.tsum(y))
        np.testing.assert_allclose(x.grad, [[8.0]])

    def test_same_input_twice_gets_both_shares(self):
        x = t([[1.5, -2.0], [0.25, 3.0]], rg=True)
        ad.backward(ad.tsum(ad.mul(x, x)))
        np.testing.assert_array_equal(x.grad, 2.0 * x.values)
        y = t([[1.5, -2.0], [0.25, 3.0]], rg=True)
        ad.backward(ad.tsum(ad.sub(y, y)))
        np.testing.assert_array_equal(y.grad, np.zeros((2, 2)))

    def test_vjp_with_too_few_gradients_refused(self):
        a, b = t([[1.0]], rg=True), t([[2.0]], rg=True)
        out = ad._make("short", a.values + b.values, (a, b), lambda g: (g,))
        with pytest.raises(ValueError):
            ad.backward(ad.tsum(out))

    def test_backward_needs_scalar(self):
        x = t(np.ones((2, 2)), rg=True)
        with pytest.raises(ad.ShapeError):
            ad.backward(ad.square(x))

    def test_no_grad_without_flag(self):
        x = t([[1.0]])
        ad.backward(ad.tsum(ad.square(x)))
        assert x.grad is None

    def test_backward_frees_intermediates(self):
        a = t([[1.0, -2.0], [3.0, 0.5]], rg=True)
        b = t([[0.5, -1.0], [2.0, 1.0]], rg=True)
        h = ad.matmul(a, b)
        freed = weakref.ref(h.values)
        loss = ad.tsum(ad.relu(h))
        del h
        assert freed() is not None      # held by the graph until backward
        ad.backward(loss)
        assert freed() is None
        G = (a.values @ b.values > 0).astype(float)
        np.testing.assert_allclose(a.grad, G @ b.values.T)
        np.testing.assert_allclose(b.grad, a.values.T @ G)

    def test_second_backward_refused(self):
        x = t([[2.0]], rg=True)
        h = ad.square(x)
        loss = ad.tsum(h)
        ad.backward(loss)
        with pytest.raises(ValueError, match="already consumed by backward"):
            ad.backward(loss)
        with pytest.raises(ValueError, match="already consumed by backward"):
            ad.backward(ad.tsum(ad.exp(h)))     # shares the consumed ``h``
        np.testing.assert_allclose(x.grad, [[4.0]])

    def test_fresh_graph_per_step_accumulates(self):
        x = t([[2.0]], rg=True)
        for _ in range(2):
            ad.backward(ad.tsum(ad.square(x)))
        np.testing.assert_allclose(x.grad, [[8.0]])


class TestGradCheck:
    def test_quadratic(self):
        x = t(np.random.default_rng(0).normal(size=(3, 3)), rg=True)
        assert grad_check(lambda v: ad.tsum(ad.square(v)), x) < 1e-8

    def test_deep_composite(self):
        rng = np.random.default_rng(7)
        W1 = t(rng.normal(size=(4, 5)))
        W2 = t(rng.normal(size=(5, 2)))
        x = t(rng.normal(size=(3, 4)), rg=True)

        def f(v):
            h = ad.relu(ad.matmul(v, W1))
            return ad.tsum(ad.square(ad.sigmoid(ad.matmul(h, W2))))

        assert grad_check(f, x) < 1e-6

    def test_softmax_chain(self):
        x = t(np.random.default_rng(3).normal(size=(4, 6)), rg=True)

        def f(v):
            return ad.tsum(ad.square(ad.row_softmax(v)))

        assert grad_check(f, x) < 1e-6

    def test_masked_softmax_chain(self):
        rng = np.random.default_rng(5)
        m = 6
        edges = [(i, j, 1.0) for i in range(m) for j in range(i + 1, m)
                 if rng.random() > 0.5]
        nbrs = nbrs_of(edges, m)
        x = t(rng.normal(size=(m, 4)), rg=True)
        Wq, Wk, Wv = (t(rng.normal(size=(4, 8))) for _ in range(3))

        def f(v):
            return ad.tsum(ad.square(ad.transformer_layer(v, nbrs, Wq, Wk, Wv, 2, 0.5)[0]))

        assert grad_check(f, x) < 1e-6

    # Each case runs a layer op on the 5-node graph with an isolated node, set
    # up to exercise the step it is named after; every parent is checked.
    EDGE_OP_CASES = {
        # several heads of width 2: a_src and a_dst read per head
        "head_dot": (ad.gat_layer, [(5, 4), (4, 6), (2, 3), (2, 3)], [0.2]),
        # slope 1 makes the LeakyReLU the identity: the edge softmax alone
        "edge_softmax": (ad.gat_layer, [(5, 3), (3, 3), (1, 3), (1, 3)], [1.0]),
        # one head at unit scale: the bare per-edge dot product
        "sddmm": (ad.transformer_layer, [(5, 2), (2, 2), (2, 2), (2, 2)], [1, 1.0]),
        "gat_attention": (ad.gat_layer, [(5, 3), (3, 3), (1, 3), (1, 3)], [0.2]),
        "dot_attention": (ad.transformer_layer, [(5, 2), (2, 6), (2, 6), (2, 6)], [3, 0.5]),
        "aggregate-relu": (ad.gat_layer, [(5, 6), (6, 6), (2, 3), (2, 3)], [0.2]),
        "aggregate-elu": (ad.transformer_layer, [(5, 6), (6, 6), (6, 6), (6, 6)], [2, 1.0]),
    }

    @pytest.mark.parametrize("op", list(EDGE_OP_CASES))
    def test_edge_op_gradients(self, op):
        nbrs = nbrs_of()
        rng = np.random.default_rng(5)
        fn, shapes, args = self.EDGE_OP_CASES[op]
        inputs = [t(rng.normal(size=s)) for s in shapes]
        out = fn(inputs[0], nbrs, *inputs[1:], *args)[0].values
        if fn is ad.transformer_layer:
            assert (out < 0).any()      # ELU's negative branch
        R = t(rng.normal(size=out.shape))
        for x in inputs:
            x.requires_grad = True

            def f(v):
                return ad.tsum(ad.mul(fn(inputs[0], nbrs, *inputs[1:], *args)[0], R))

            assert grad_check(f, x) < 1e-8
            x.requires_grad = False

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            grad_check(ad.tsum, t([[1.0]], rg=True), h=0.0)


class TestTape:
    def test_records_ops_in_order(self):
        with ad.Tape() as tape:
            x = t([[1.0]], rg=True)
            y = ad.square(x)
            ad.tsum(y)
        assert [kind for kind, _, _ in tape.ops] == ["square", "sum"]

    def test_nested_tapes_restore(self):
        with ad.Tape() as outer:
            ad.square(t([[1.0]]))
            with ad.Tape() as inner:
                ad.square(t([[2.0]]))
            ad.square(t([[3.0]]))
        assert len(outer.ops) == 2 and len(inner.ops) == 1


class TestAdam:
    def test_first_step_is_lr_signed(self):
        # with bias correction the first update is exactly lr * sign(g)
        p = t([[1.0, -1.0]], rg=True)
        state = ad.AdamState([p], lr=0.1)
        p.grad = np.array([[0.5, -0.25]])
        ad.adam_step(state)
        np.testing.assert_allclose(p.values, [[1.0 - 0.1, -1.0 + 0.1]], atol=1e-7)
        assert p.grad is None

    def test_converges_on_quadratic(self):
        p = t([[5.0]], rg=True)
        state = ad.AdamState([p], lr=0.2)
        for _ in range(300):
            loss = ad.tsum(ad.square(p))
            ad.backward(loss)
            ad.adam_step(state)
        assert abs(p.values[0, 0]) < 1e-2

    def test_missing_grad_rejected(self):
        p = t([[1.0]], rg=True)
        state = ad.AdamState([p])
        with pytest.raises(ValueError):
            ad.adam_step(state)
