"""Tests for functional ops: concat/stack/softmax/segment reductions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.tensor import Tensor
from tests.helpers import check_gradients


def _t(shape, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)


class TestConcatStack:
    def test_concat_forward(self):
        a, b = Tensor([[1.0]]), Tensor([[2.0]])
        np.testing.assert_allclose(F.concat([a, b], axis=0).data, [[1.0], [2.0]])

    def test_concat_grad(self):
        a, b = _t((2, 3), 1), _t((4, 3), 2)
        check_gradients(lambda: (F.concat([a, b], axis=0) ** 2).sum(), [a, b])

    def test_concat_axis1_grad(self):
        a, b = _t((2, 3), 1), _t((2, 2), 2)
        check_gradients(lambda: (F.concat([a, b], axis=1) ** 2).sum(), [a, b])

    def test_stack_grad(self):
        a, b, c = _t((3,), 1), _t((3,), 2), _t((3,), 3)
        check_gradients(lambda: (F.stack([a, b, c]) ** 2).sum(), [a, b, c])

    def test_stack_new_axis(self):
        a, b = _t((2, 2), 1), _t((2, 2), 2)
        assert F.stack([a, b], axis=1).shape == (2, 2, 2)


class TestMaximum:
    def test_maximum_forward(self):
        a = Tensor([1.0, 5.0])
        b = Tensor([3.0, 2.0])
        np.testing.assert_allclose(F.maximum(a, b).data, [3.0, 5.0])

    def test_maximum_grad_routing(self):
        a = Tensor(np.array([1.0, 5.0], dtype=np.float32), requires_grad=True)
        b = Tensor(np.array([3.0, 2.0], dtype=np.float32), requires_grad=True)
        F.maximum(a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 0.0])

    def test_elementwise_max_three(self):
        ts = [Tensor(np.full((2,), v, dtype=np.float32)) for v in (1.0, 3.0, 2.0)]
        np.testing.assert_allclose(F.elementwise_max(ts).data, [3.0, 3.0])


class TestSoftmax:
    def test_softmax_sums_to_one(self):
        x = _t((4, 5))
        s = F.softmax(x, axis=-1).data.sum(axis=-1)
        np.testing.assert_allclose(s, np.ones(4), rtol=1e-5)

    def test_softmax_grad(self):
        x = _t((2, 3))
        w = np.random.default_rng(9).standard_normal((2, 3)).astype(np.float32)
        check_gradients(lambda: (F.softmax(x, axis=-1) * Tensor(w)).sum(), [x])

    def test_softmax_large_values_stable(self):
        x = Tensor(np.array([[1000.0, 1000.0]], dtype=np.float32))
        out = F.softmax(x).data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [[0.5, 0.5]])


class TestDropout:
    def test_dropout_eval_identity(self):
        x = _t((10, 10))
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=False)
        assert out is x

    def test_dropout_zero_p_identity(self):
        x = _t((4,))
        assert F.dropout(x, 0.0, np.random.default_rng(0), training=True) is x

    def test_dropout_scales_kept_values(self):
        x = Tensor(np.ones((1000,), dtype=np.float32))
        out = F.dropout(x, 0.5, np.random.default_rng(0), training=True)
        kept = out.data[out.data > 0]
        np.testing.assert_allclose(kept, 2.0)
        # roughly half survive
        assert 350 < kept.size < 650


class TestEmbedding:
    def test_lookup_forward(self):
        w = Tensor(np.arange(12, dtype=np.float32).reshape(4, 3), requires_grad=True)
        out = F.embedding_lookup(w, np.array([1, 3]))
        np.testing.assert_allclose(out.data, [[3, 4, 5], [9, 10, 11]])

    def test_lookup_grad_accumulates_repeats(self):
        w = _t((5, 2))
        idx = np.array([2, 2, 2])
        F.embedding_lookup(w, idx).sum().backward()
        np.testing.assert_allclose(w.grad[2], [3.0, 3.0])
        np.testing.assert_allclose(w.grad[0], [0.0, 0.0])

    def test_lookup_2d_indices(self):
        w = _t((7, 4))
        out = F.embedding_lookup(w, np.zeros((2, 3), dtype=np.int64))
        assert out.shape == (2, 3, 4)

    def test_lookup_rejects_float_indices(self):
        w = _t((3, 2))
        with pytest.raises(TypeError):
            F.embedding_lookup(w, np.array([0.5]))


class TestSegmentOps:
    def test_segment_sum_forward(self):
        x = Tensor(np.array([[1.0], [2.0], [3.0]], dtype=np.float32))
        out = F.segment_sum(x, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.data, [[3.0], [3.0]])

    def test_segment_sum_empty_segment_is_zero(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32))
        out = F.segment_sum(x, np.array([0, 0]), 3)
        np.testing.assert_allclose(out.data[1:], 0.0)

    def test_segment_sum_grad(self):
        x = _t((5, 2))
        seg = np.array([0, 1, 1, 2, 0])
        check_gradients(lambda: (F.segment_sum(x, seg, 3) ** 2).sum(), [x])

    def test_segment_mean_forward(self):
        x = Tensor(np.array([[2.0], [4.0], [10.0]], dtype=np.float32))
        out = F.segment_mean(x, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.data, [[3.0], [10.0]])

    def test_segment_mean_grad(self):
        x = _t((4, 3))
        seg = np.array([0, 0, 1, 1])
        check_gradients(lambda: (F.segment_mean(x, seg, 2) ** 2).sum(), [x])

    def test_segment_max_forward(self):
        x = Tensor(np.array([[1.0], [5.0], [3.0]], dtype=np.float32))
        out = F.segment_max(x, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.data, [[5.0], [3.0]])

    def test_segment_max_empty_segment_is_zero(self):
        x = Tensor(np.ones((1, 2), dtype=np.float32))
        out = F.segment_max(x, np.array([0]), 2)
        np.testing.assert_allclose(out.data[1], 0.0)

    def test_segment_max_grad_distinct(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.permutation(10).astype(np.float32).reshape(5, 2), requires_grad=True)
        seg = np.array([0, 1, 0, 1, 2])
        check_gradients(lambda: (F.segment_max(x, seg, 3) ** 2).sum(), [x])

    def test_segment_softmax_sums_to_one_per_segment(self):
        x = _t((6,), 4)
        seg = np.array([0, 0, 1, 1, 1, 2])
        out = F.segment_softmax(x, seg, 3).data
        np.testing.assert_allclose(np.bincount(seg, weights=out), [1, 1, 1], rtol=1e-4)

    def test_segment_softmax_grad(self):
        x = _t((5,), 8)
        seg = np.array([0, 0, 1, 1, 1])
        w = np.random.default_rng(1).standard_normal(5).astype(np.float32)
        check_gradients(lambda: (F.segment_softmax(x, seg, 2) * Tensor(w)).sum(), [x])

    def test_segment_softmax_multihead(self):
        x = _t((4, 2), 6)
        seg = np.array([0, 0, 1, 1])
        out = F.segment_softmax(x, seg, 2).data
        sums = np.zeros((2, 2))
        np.add.at(sums, seg, out)
        np.testing.assert_allclose(sums, 1.0, rtol=1e-4)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=30),
        segs=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_property_segment_sum_equals_loop(self, n, segs, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 3)).astype(np.float32)
        seg = rng.integers(0, segs, size=n)
        out = F.segment_sum(Tensor(x), seg, segs).data
        expected = np.zeros((segs, 3), dtype=np.float64)
        for i in range(n):
            expected[seg[i]] += x[i]
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-5)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=30),
        segs=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_property_segment_max_equals_loop(self, n, segs, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 2)).astype(np.float32)
        seg = rng.integers(0, segs, size=n)
        out = F.segment_max(Tensor(x), seg, segs).data
        for s in range(segs):
            rows = x[seg == s]
            if rows.size:
                np.testing.assert_allclose(out[s], rows.max(axis=0), rtol=1e-5)
            else:
                np.testing.assert_allclose(out[s], 0.0)


class TestUtility:
    def test_clip_grad_norm_scales(self):
        t = _t((4,), 2)
        (t * 100.0).sum().backward()
        pre = F.clip_grad_norm([t], max_norm=1.0)
        assert pre > 1.0
        assert np.linalg.norm(t.grad) == pytest.approx(1.0, rel=1e-4)

    def test_clip_grad_norm_noop_below_max(self):
        t = _t((2,), 3)
        t.grad = np.array([0.1, 0.1], dtype=np.float32)
        F.clip_grad_norm([t], max_norm=10.0)
        np.testing.assert_allclose(t.grad, [0.1, 0.1])

    def test_pad_sequences(self):
        seqs = [np.array([1, 2, 3]), np.array([4])]
        out = F.pad_sequences(seqs, length=4, pad_value=0)
        np.testing.assert_array_equal(out, [[1, 2, 3, 0], [4, 0, 0, 0]])

    def test_pad_sequences_truncates(self):
        out = F.pad_sequences([np.arange(10)], length=3, pad_value=-1)
        np.testing.assert_array_equal(out, [[0, 1, 2]])
