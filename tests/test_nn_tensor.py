"""Unit tests for the autograd engine: ops, broadcasting, gradient checks."""

import numpy as np
import pytest

from repro.nn.tensor import Tensor, no_grad, ones, zeros
from tests.helpers import check_gradients


def _t(shape, seed=0, requires_grad=True):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=requires_grad)


class TestBasics:
    def test_construction_casts_to_float32(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        assert t.dtype == np.float32

    def test_int_data_stays_int_without_grad(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype.kind in "iu"

    def test_shape_ndim_size(self):
        t = zeros(2, 3)
        assert t.shape == (2, 3) and t.ndim == 2 and t.size == 6

    def test_item_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_no_grad_context(self):
        a = _t((3,))
        with no_grad():
            b = a * 2
        assert not b.requires_grad

    def test_ones_zeros(self):
        assert np.all(ones(2, 2).data == 1)
        assert np.all(zeros(2, 2).data == 0)

    def test_repr_mentions_shape(self):
        assert "shape=(2, 3)" in repr(zeros(2, 3))


class TestArithmetic:
    def test_add_forward(self):
        a, b = Tensor([1.0, 2.0]), Tensor([3.0, 4.0])
        np.testing.assert_allclose((a + b).data, [4.0, 6.0])

    def test_add_broadcast_grad(self):
        a = _t((2, 3), 1)
        b = _t((3,), 2)
        check_gradients(lambda: (a + b).sum(), [a, b])

    def test_scalar_radd(self):
        a = _t((3,))
        check_gradients(lambda: (1.5 + a).sum(), [a])

    def test_sub_grad(self):
        a, b = _t((4,), 1), _t((4,), 2)
        check_gradients(lambda: (a - b).sum(), [a, b])

    def test_rsub(self):
        a = _t((3,))
        np.testing.assert_allclose((2.0 - a).data, 2.0 - a.data, rtol=1e-6)

    def test_mul_grad(self):
        a, b = _t((2, 2), 1), _t((2, 2), 2)
        check_gradients(lambda: (a * b).sum(), [a, b])

    def test_mul_broadcast_grad(self):
        a = _t((2, 3), 1)
        b = _t((1, 3), 2)
        check_gradients(lambda: (a * b).sum(), [a, b])

    def test_div_grad(self):
        a = _t((3,), 1)
        b = Tensor(np.array([1.5, 2.0, 2.5], dtype=np.float32), requires_grad=True)
        check_gradients(lambda: (a / b).sum(), [a, b])

    def test_rtruediv(self):
        b = Tensor(np.array([2.0, 4.0], dtype=np.float32), requires_grad=True)
        check_gradients(lambda: (1.0 / b).sum(), [b])

    def test_pow_grad(self):
        a = Tensor(np.array([1.0, 2.0, 3.0], dtype=np.float32), requires_grad=True)
        check_gradients(lambda: (a**3).sum(), [a])

    def test_neg_grad(self):
        a = _t((3,))
        check_gradients(lambda: (-a).sum(), [a])

    def test_matmul_2d_grad(self):
        a, b = _t((3, 4), 1), _t((4, 2), 2)
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_matmul_batched_grad(self):
        a, b = _t((2, 3, 4), 1), _t((2, 4, 2), 2)
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_matmul_vector(self):
        a, b = _t((4,), 1), _t((4,), 2)
        check_gradients(lambda: a @ b, [a, b])

    def test_shared_operand_accumulates(self):
        a = _t((3,))
        check_gradients(lambda: (a * a + a).sum(), [a])

    def test_diamond_graph_gradient(self):
        # y = (a+a) * (a*2): gradient must accumulate through both branches.
        a = _t((2,))
        check_gradients(lambda: ((a + a) * (a * 2.0)).sum(), [a])


class TestShapes:
    def test_reshape_grad(self):
        a = _t((2, 6))
        check_gradients(lambda: (a.reshape(3, 4) * 2).sum(), [a])

    def test_reshape_tuple_arg(self):
        a = _t((4,))
        assert a.reshape((2, 2)).shape == (2, 2)

    def test_transpose_grad(self):
        a = _t((2, 3))
        check_gradients(lambda: (a.T * _t((3, 2), 5, requires_grad=False)).sum(), [a])

    def test_transpose_axes(self):
        a = _t((2, 3, 4))
        assert a.transpose(2, 0, 1).shape == (4, 2, 3)

    def test_getitem_slice_grad(self):
        a = _t((5, 3))
        check_gradients(lambda: (a[1:4] * 2).sum(), [a])

    def test_getitem_fancy_grad(self):
        a = _t((5, 3))
        idx = np.array([0, 2, 2, 4])
        check_gradients(lambda: (a[idx] * 3).sum(), [a])

    def test_getitem_repeated_rows_accumulate(self):
        a = Tensor(np.eye(3, dtype=np.float32), requires_grad=True)
        out = a[np.array([1, 1, 1])].sum()
        out.backward()
        assert a.grad[1].sum() == pytest.approx(9.0)


class TestReductions:
    def test_sum_all_grad(self):
        a = _t((3, 4))
        check_gradients(lambda: a.sum(), [a])

    def test_sum_axis_grad(self):
        a = _t((3, 4))
        check_gradients(lambda: (a.sum(axis=0) ** 2).sum(), [a])

    def test_sum_keepdims(self):
        a = _t((3, 4))
        assert a.sum(axis=1, keepdims=True).shape == (3, 1)

    def test_mean_grad(self):
        a = _t((4, 2))
        check_gradients(lambda: (a.mean(axis=0) ** 2).sum(), [a])

    def test_mean_all(self):
        a = _t((4,))
        assert a.mean().item() == pytest.approx(float(a.data.mean()), rel=1e-5)

    def test_max_axis_grad(self):
        rng = np.random.default_rng(7)
        # Distinct values avoid tie-splitting ambiguity vs numeric grad.
        vals = rng.permutation(12).astype(np.float32).reshape(3, 4)
        a = Tensor(vals, requires_grad=True)
        check_gradients(lambda: (a.max(axis=1) ** 2).sum(), [a])

    def test_max_keepdims_shape(self):
        a = _t((3, 4))
        assert a.max(axis=1, keepdims=True).shape == (3, 1)


class TestElementwise:
    def test_exp_grad(self):
        a = _t((3,))
        check_gradients(lambda: a.exp().sum(), [a])

    def test_log_grad(self):
        a = Tensor(np.array([0.5, 1.0, 2.0], dtype=np.float32), requires_grad=True)
        check_gradients(lambda: a.log().sum(), [a])

    def test_sqrt_grad(self):
        a = Tensor(np.array([1.0, 4.0, 9.0], dtype=np.float32), requires_grad=True)
        check_gradients(lambda: a.sqrt().sum(), [a])

    def test_tanh_grad(self):
        a = _t((4,))
        check_gradients(lambda: a.tanh().sum(), [a])

    def test_sigmoid_grad(self):
        a = _t((4,))
        check_gradients(lambda: a.sigmoid().sum(), [a])

    def test_sigmoid_extreme_values_stable(self):
        a = Tensor(np.array([-100.0, 100.0], dtype=np.float32))
        out = a.sigmoid().data
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-6)
        assert out[1] == pytest.approx(1.0, abs=1e-6)

    def test_leaky_relu_grad(self):
        a = Tensor(np.array([-2.0, -0.5, 0.5, 2.0], dtype=np.float32), requires_grad=True)
        check_gradients(lambda: a.leaky_relu(0.2).sum(), [a])

    def test_leaky_relu_negative_slope(self):
        a = Tensor(np.array([-1.0], dtype=np.float32))
        assert a.leaky_relu(0.3).data[0] == pytest.approx(-0.3)

    def test_clip_grad(self):
        a = Tensor(np.array([-2.0, 0.0, 2.0], dtype=np.float32), requires_grad=True)
        out = a.clip(-1.0, 1.0)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])


class TestBackwardMechanics:
    def test_backward_requires_grad_error(self):
        a = Tensor([1.0])
        with pytest.raises(RuntimeError):
            a.backward()

    def test_grad_accumulates_across_backward_calls(self):
        a = _t((2,))
        (a * 2).sum().backward()
        (a * 2).sum().backward()
        np.testing.assert_allclose(a.grad, [4.0, 4.0])

    def test_zero_grad(self):
        a = _t((2,))
        (a * 2).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_long_chain_no_recursion_error(self):
        a = _t((2,))
        x = a
        for _ in range(2000):
            x = x + 1.0
        x.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])

    def test_add_aliasing_same_grad_to_both_parents(self):
        # Regression: add passes the same array to both parents; ensure the
        # stored gradients do not alias each other.
        a, b = _t((3,), 1), _t((3,), 2)
        s = a + b
        y = (s * 1.0) + (s * 1.0)
        y.sum().backward()
        np.testing.assert_allclose(a.grad, [2.0, 2.0, 2.0])
        np.testing.assert_allclose(b.grad, [2.0, 2.0, 2.0])
