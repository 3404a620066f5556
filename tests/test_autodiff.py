"""Unit tests for the reverse-mode autodiff engine.

Gradients are checked two ways: closed-form derivatives where they are
textbook (sigmoid, softmax), and central differences via grad_check for
composite expressions.
"""

import numpy as np
import pytest

from vibgraph import autodiff as ad


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
        mask = np.array([[True, False, True], [True, True, False]])
        out = ad.masked_neighbor_softmax(t(np.ones((2, 3))), mask)
        assert out.values[0, 1] == 0.0 and out.values[1, 2] == 0.0
        np.testing.assert_allclose(out.values.sum(axis=1), [1.0, 1.0], atol=1e-14)

    def test_masked_softmax_empty_row_rejected(self):
        mask = np.array([[False, False]])
        with pytest.raises(ad.DomainError):
            ad.masked_neighbor_softmax(t([[1.0, 2.0]]), mask)

    def test_cols(self):
        out = ad.cols(t([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), 1, 3)
        np.testing.assert_array_equal(out.values, [[2, 3], [5, 6]])
        with pytest.raises(ad.ShapeError):
            ad.cols(t(np.zeros((2, 3))), 2, 4)

    def test_sum_mean(self):
        x = t([[1.0, 2.0], [3.0, 4.0]])
        assert ad.tsum(x).item() == 10.0
        assert ad.tmean(x).item() == 2.5

    def test_transpose(self):
        out = ad.transpose(t([[1.0, 2.0]]))
        assert out.shape == (2, 1)


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

    def test_cols_gradient_fills_its_columns_only(self):
        x = t(np.ones((2, 4)), rg=True)
        y = ad.add(ad.cols(x, 0, 2), ad.scalar_mul(ad.cols(x, 1, 3), 3.0))
        ad.backward(ad.tsum(y))
        np.testing.assert_array_equal(x.grad, [[1, 4, 3, 0], [1, 4, 3, 0]])

    def test_backward_needs_scalar(self):
        x = t(np.ones((2, 2)), rg=True)
        with pytest.raises(ad.ShapeError):
            ad.backward(ad.square(x))

    def test_no_grad_without_flag(self):
        x = t([[1.0]])
        ad.backward(ad.tsum(ad.square(x)))
        assert x.grad is None


class TestGradCheck:
    def test_quadratic(self):
        x = t(np.random.default_rng(0).normal(size=(3, 3)), rg=True)
        assert ad.grad_check(lambda v: ad.tsum(ad.square(v)), x) < 1e-8

    def test_deep_composite(self):
        rng = np.random.default_rng(7)
        W1 = t(rng.normal(size=(4, 5)))
        W2 = t(rng.normal(size=(5, 2)))
        x = t(rng.normal(size=(3, 4)), rg=True)

        def f(v):
            h = ad.elu(ad.matmul(v, W1))
            return ad.tmean(ad.square(ad.sigmoid(ad.matmul(h, W2))))

        assert ad.grad_check(f, x) < 1e-6

    def test_softmax_chain(self):
        x = t(np.random.default_rng(3).normal(size=(4, 6)), rg=True)

        def f(v):
            return ad.tsum(ad.square(ad.row_softmax(v)))

        assert ad.grad_check(f, x) < 1e-6

    def test_masked_softmax_chain(self):
        rng = np.random.default_rng(5)
        mask = rng.random((4, 4)) > 0.3
        mask |= np.eye(4, dtype=bool)
        x = t(rng.normal(size=(4, 4)), rg=True)

        def f(v):
            return ad.tsum(ad.square(ad.masked_neighbor_softmax(v, mask)))

        assert ad.grad_check(f, x) < 1e-6

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            ad.grad_check(ad.tsum, t([[1.0]], rg=True), h=0.0)


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
