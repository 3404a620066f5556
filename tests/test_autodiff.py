"""Unit tests for the reverse-mode autodiff engine.

Gradients are checked two ways: closed-form derivatives where they are
textbook (sigmoid, softmax), and central differences via grad_check for
composite expressions.
"""

import weakref

import numpy as np
import pytest

from vibgraph import autodiff as ad
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
        out = ad.leaky_relu(t([[-1.0, 2.0]]), slope=0.2)
        np.testing.assert_allclose(out.values, [[-0.2, 2.0]])

    def test_elu_negative_branch(self):
        out = ad.elu(t([[-1.0]]))
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
        s = ad.edge_softmax(t(np.ones((len(nbrs.rows), 1))), nbrs).values[:, 0]
        S = dense(nbrs, s)
        assert (S[dense(nbrs, 1.0) == 0] == 0.0).all()
        np.testing.assert_allclose(S.sum(axis=1), np.ones(5), atol=1e-14)
        np.testing.assert_allclose(S[0], [1 / 3, 1 / 3, 0, 1 / 3, 0], atol=1e-15)

    def test_masked_softmax_empty_row_rejected(self):
        # row 1 holds no entry, not even its self-loop
        nbrs = Neighbors(indptr=np.array([0, 1, 1]), rows=np.array([0]),
                         cols=np.array([0]), perm=np.array([0]))
        with pytest.raises(ad.DomainError):
            ad.edge_softmax(t([[1.0]]), nbrs)

    def test_sum_mean(self):
        x = t([[1.0, 2.0], [3.0, 4.0]])
        assert ad.tsum(x).item() == 10.0
        np.testing.assert_array_equal(ad.head_mean(x, 2).values, [[1.5], [3.5]])


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


class TestEdgeOps:
    def test_head_dot(self):
        rng = np.random.default_rng(0)
        X, a = rng.normal(size=(5, 6)), rng.normal(size=(2, 3))
        out = ad.head_dot(t(X), t(a)).values
        expect = np.column_stack([Xk @ a[:, k] for k, Xk in enumerate(blocks(X, 3))])
        np.testing.assert_allclose(out, expect, atol=1e-15)
        with pytest.raises(ad.ShapeError):
            ad.head_dot(t(X), t(np.zeros((3, 3))))

    def test_edge_sum(self):
        nbrs = nbrs_of()
        u, v = np.arange(10.0).reshape(5, 2), 100.0 * np.arange(10.0).reshape(5, 2)
        out = ad.edge_sum(t(u), t(v), nbrs).values
        for k in range(2):
            np.testing.assert_array_equal(dense(nbrs, out[:, k]),
                                          dense(nbrs, 1.0) * (u[:, [k]] + v[:, k]))
        with pytest.raises(ad.ShapeError):
            ad.edge_sum(t(u[:4]), t(v[:4]), nbrs)

    def test_edge_softmax_per_row_and_head(self):
        nbrs = nbrs_of()
        E = np.random.default_rng(1).normal(size=(len(nbrs.rows), 3))
        s = ad.edge_softmax(t(E), nbrs).values
        for k in range(3):
            S = np.where(dense(nbrs, 1.0) > 0, dense(nbrs, E[:, k]), -np.inf)
            S = np.exp(S - S.max(axis=1, keepdims=True))
            np.testing.assert_allclose(dense(nbrs, s[:, k]),
                                       S / S.sum(axis=1, keepdims=True), atol=1e-15)
        np.testing.assert_allclose(ad.row_sum(s, nbrs), 1.0, atol=1e-15)
        np.testing.assert_allclose(ad.edge_softmax(t(E + 500.0), nbrs).values, s,
                                   atol=1e-15)
        assert s[nbrs.rows == 4].tolist() == [[1.0, 1.0, 1.0]]   # isolated: self only
        with pytest.raises(ad.ShapeError):
            ad.edge_softmax(t(E[1:]), nbrs)

    def test_spmm(self):
        nbrs = nbrs_of()
        rng = np.random.default_rng(2)
        A, X = rng.normal(size=(len(nbrs.rows), 2)), rng.normal(size=(5, 6))
        out = ad.spmm(t(A), t(X), nbrs).values
        expect = np.hstack([dense(nbrs, A[:, k]) @ Xk
                            for k, Xk in enumerate(blocks(X, 2))])
        np.testing.assert_allclose(out, expect, atol=1e-15)
        with pytest.raises(ad.ShapeError):
            ad.spmm(t(A), t(X[:4]), nbrs)

    def test_sddmm(self):
        nbrs = nbrs_of()
        rng = np.random.default_rng(3)
        P, Q = rng.normal(size=(5, 6)), rng.normal(size=(5, 6))
        out = ad.sddmm(t(P), t(Q), nbrs, 3).values
        assert out.shape == (len(nbrs.rows), 3)
        for k, (Pk, Qk) in enumerate(zip(blocks(P, 3), blocks(Q, 3))):
            np.testing.assert_allclose(dense(nbrs, out[:, k]),
                                       dense(nbrs, 1.0) * (Pk @ Qk.T), atol=1e-15)
        with pytest.raises(ad.ShapeError):
            ad.sddmm(t(P[:4]), t(Q[:4]), nbrs, 3)

    def test_head_mean(self):
        X = np.arange(12.0).reshape(2, 6)
        out = ad.head_mean(t(X), 3).values
        np.testing.assert_allclose(out, (X[:, 0:2] + X[:, 2:4] + X[:, 4:6]) / 3)
        with pytest.raises(ad.ShapeError):
            ad.head_mean(t(X), 4)


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
            h = ad.elu(ad.matmul(v, W1))
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
        x = t(rng.normal(size=(len(nbrs.rows), 2)), rg=True)

        def f(v):
            return ad.tsum(ad.square(ad.edge_softmax(v, nbrs)))

        assert grad_check(f, x) < 1e-6

    @pytest.mark.parametrize("op", ["head_dot", "edge_sum", "edge_softmax", "spmm",
                                    "sddmm", "head_mean"])
    def test_edge_op_gradients(self, op):
        nbrs = nbrs_of()
        rng = np.random.default_rng(5)
        nnz = len(nbrs.rows)
        shapes = {"head_dot": [(5, 6), (2, 3)], "edge_sum": [(5, 3), (5, 3)],
                  "edge_softmax": [(nnz, 3)], "spmm": [(nnz, 3), (5, 6)],
                  "sddmm": [(5, 6), (5, 6)], "head_mean": [(5, 6)]}[op]
        args = {"head_dot": [], "edge_sum": [nbrs], "edge_softmax": [nbrs],
                "spmm": [nbrs], "sddmm": [nbrs, 3], "head_mean": [3]}[op]
        inputs = [t(rng.normal(size=s)) for s in shapes]
        R = t(rng.normal(size=getattr(ad, op)(*inputs, *args).shape))
        for x in inputs:
            x.requires_grad = True

            def f(v):
                return ad.tsum(ad.mul(getattr(ad, op)(*inputs, *args), R))

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
