"""Tests for GATv2, HeteroConv, the hetero stack, and graph pooling."""

import numpy as np
import pytest

from repro.nn.gnn import GATv2Conv, HeteroConv, HeteroGNNStack
from repro.nn.pooling import GlobalAttentionPool
from repro.nn.tensor import Tensor
from tests.helpers import check_gradients


def _rng(seed=0):
    return np.random.default_rng(seed)


def _graph(n=5, e=8, seed=0):
    rng = _rng(seed)
    x = Tensor(rng.standard_normal((n, 4)).astype(np.float32))
    edges = rng.integers(0, n, size=(2, e)).astype(np.int64)
    pos = rng.integers(0, 3, size=e).astype(np.int64)
    return x, edges, pos


class TestGATv2Conv:
    def test_output_shape(self):
        x, edges, pos = _graph()
        conv = GATv2Conv(4, 6, rng=_rng(1))
        assert conv(x, edges).shape == (5, 6)

    def test_multihead_shape(self):
        x, edges, _ = _graph()
        conv = GATv2Conv(4, 8, heads=2, rng=_rng(1))
        assert conv(x, edges).shape == (5, 8)

    def test_rejects_bad_head_split(self):
        with pytest.raises(ValueError):
            GATv2Conv(4, 7, heads=2)

    def test_isolated_node_survives_via_self_loop(self):
        x = Tensor(np.ones((3, 4), dtype=np.float32))
        edges = np.array([[0], [1]], dtype=np.int64)  # node 2 isolated
        conv = GATv2Conv(4, 4, rng=_rng(2))
        out = conv(x, edges).data
        assert np.abs(out[2]).sum() > 0

    def test_no_self_loops_zero_for_isolated(self):
        x = Tensor(np.ones((3, 4), dtype=np.float32))
        edges = np.array([[0], [1]], dtype=np.int64)
        conv = GATv2Conv(4, 4, add_self_loops=False, rng=_rng(2))
        out = conv(x, edges).data
        np.testing.assert_allclose(out[2], conv.bias.data, atol=1e-6)

    def test_empty_edge_set(self):
        x = Tensor(np.ones((3, 4), dtype=np.float32))
        edges = np.zeros((2, 0), dtype=np.int64)
        conv = GATv2Conv(4, 4, rng=_rng(3))
        assert conv(x, edges).shape == (3, 4)

    def test_position_feature_changes_output(self):
        x, edges, pos = _graph(seed=5)
        conv = GATv2Conv(4, 4, edge_dim=1, rng=_rng(4))
        out_a = conv(x, edges, pos).data
        out_b = conv(x, edges, (pos + 1) % 3).data
        assert not np.allclose(out_a, out_b)

    def test_position_clipped_into_table(self):
        x, edges, _ = _graph(seed=6)
        conv = GATv2Conv(4, 4, edge_dim=1, max_positions=4, rng=_rng(5))
        big_pos = np.full(edges.shape[1], 1000, dtype=np.int64)
        out = conv(x, edges, big_pos)
        assert np.all(np.isfinite(out.data))

    def test_gradcheck_small(self):
        rng = _rng(7)
        x = Tensor(rng.standard_normal((4, 3)).astype(np.float32))
        edges = np.array([[0, 1, 2, 3], [1, 2, 3, 0]], dtype=np.int64)
        conv = GATv2Conv(3, 2, rng=rng)
        check_gradients(lambda: (conv(x, edges) ** 2).sum(), conv.parameters())

    def test_input_gradient_flows(self):
        rng = _rng(8)
        x = Tensor(rng.standard_normal((4, 3)).astype(np.float32), requires_grad=True)
        edges = np.array([[0, 1], [1, 0]], dtype=np.int64)
        conv = GATv2Conv(3, 2, rng=rng)
        (conv(x, edges) ** 2).sum().backward()
        assert x.grad is not None and np.abs(x.grad).sum() > 0

    def test_attention_normalizes_over_in_edges(self):
        # A node receiving messages from identical neighbors should output the
        # same value as receiving from one (softmax convexity sanity).
        rng = _rng(9)
        conv = GATv2Conv(3, 3, add_self_loops=False, rng=rng)
        h = rng.standard_normal((1, 3)).astype(np.float32)
        x2 = Tensor(np.vstack([h, h, np.zeros((1, 3))]).astype(np.float32))
        one = conv(x2, np.array([[0], [2]], dtype=np.int64)).data[2]
        two = conv(x2, np.array([[0, 1], [2, 2]], dtype=np.int64)).data[2]
        np.testing.assert_allclose(one, two, rtol=1e-4, atol=1e-5)


class TestHeteroConv:
    def _convs(self, rng):
        return {
            "control": GATv2Conv(4, 4, rng=rng),
            "data": GATv2Conv(4, 4, rng=rng),
            "call": GATv2Conv(4, 4, rng=rng),
        }

    def test_three_relations_shape(self):
        x, edges, _ = _graph()
        conv = HeteroConv(self._convs(_rng(1)))
        out = conv(x, {"control": edges, "data": edges, "call": edges})
        assert out.shape == (5, 4)

    def test_missing_relation_treated_as_empty(self):
        x, edges, _ = _graph()
        conv = HeteroConv(self._convs(_rng(2)))
        out = conv(x, {"control": edges})
        assert out.shape == (5, 4)

    def test_max_dominates(self):
        # max aggregation: output >= each relation's own output elementwise
        x, edges, _ = _graph(seed=3)
        convs = self._convs(_rng(3))
        conv = HeteroConv(convs, aggregate="max")
        combined = conv(x, {"control": edges}).data
        single = convs["control"](x, edges).data
        assert np.all(combined >= single - 1e-5)

    def test_sum_and_mean_aggregates(self):
        x, edges, _ = _graph(seed=4)
        convs = self._convs(_rng(4))
        s = HeteroConv(convs, aggregate="sum")(x, {"control": edges, "data": edges})
        convs2 = self._convs(_rng(4))
        m = HeteroConv(convs2, aggregate="mean")(x, {"control": edges, "data": edges})
        np.testing.assert_allclose(s.data / 3.0, m.data, rtol=1e-4, atol=1e-5)

    def test_rejects_unknown_aggregate(self):
        with pytest.raises(ValueError):
            HeteroConv(self._convs(_rng(0)), aggregate="median")


class TestHeteroGNNStack:
    def test_stack_shapes(self):
        x, edges, pos = _graph()
        stack = HeteroGNNStack(
            ["control", "data", "call"], in_dim=4, hidden_dim=8, num_layers=3, rng=_rng(5)
        )
        out = stack(x, {"control": edges}, {"control": pos})
        assert out.shape == (5, 8)

    def test_all_params_receive_grad(self):
        x, edges, pos = _graph(seed=6)
        stack = HeteroGNNStack(
            ["control", "data"], in_dim=4, hidden_dim=4, num_layers=2, rng=_rng(6)
        )
        out = stack(x, {"control": edges, "data": edges}, {"control": pos, "data": pos})
        (out**2).sum().backward()
        missing = [n for n, p in stack.named_parameters() if p.grad is None]
        assert not missing, f"params without grad: {missing}"

    def test_layer_count(self):
        stack = HeteroGNNStack(["control"], 4, 8, num_layers=5, rng=_rng(0))
        assert len(stack.layers) == 5
        assert len(stack.norms) == 5


class TestPooling:
    def test_attention_pool_single_graph(self):
        rng = _rng(1)
        x = Tensor(rng.standard_normal((6, 4)).astype(np.float32))
        pool = GlobalAttentionPool(4, rng=rng)
        assert pool(x).shape == (1, 4)

    def test_attention_pool_batched(self):
        rng = _rng(2)
        x = Tensor(rng.standard_normal((7, 4)).astype(np.float32))
        gid = np.array([0, 0, 0, 1, 1, 2, 2])
        pool = GlobalAttentionPool(4, rng=rng)
        assert pool(x, gid, 3).shape == (3, 4)

    def test_batched_equals_individual(self):
        rng = _rng(3)
        pool = GlobalAttentionPool(4, rng=rng)
        xa = rng.standard_normal((3, 4)).astype(np.float32)
        xb = rng.standard_normal((2, 4)).astype(np.float32)
        both = pool(
            Tensor(np.vstack([xa, xb])), np.array([0, 0, 0, 1, 1]), 2
        ).data
        solo_a = pool(Tensor(xa)).data[0]
        solo_b = pool(Tensor(xb)).data[0]
        np.testing.assert_allclose(both[0], solo_a, rtol=1e-4, atol=1e-5)
        np.testing.assert_allclose(both[1], solo_b, rtol=1e-4, atol=1e-5)

    def test_attention_pool_gradcheck(self):
        rng = _rng(4)
        x = Tensor(rng.standard_normal((4, 3)).astype(np.float32))
        pool = GlobalAttentionPool(3, rng=rng)
        check_gradients(lambda: (pool(x) ** 2).sum(), pool.parameters())


class TestConvPlanValidation:
    def _setup(self, add_self_loops=True):
        conv = GATv2Conv(6, 8, add_self_loops=add_self_loops)
        x = Tensor(np.random.default_rng(0).standard_normal((4, 6)).astype(np.float32))
        edges = np.array([[0, 1, 2], [1, 2, 3]], dtype=np.int64)
        return conv, x, edges

    def test_matching_plan_accepted(self):
        from repro.nn.segments import build_conv_plan

        conv, x, edges = self._setup()
        plan = build_conv_plan(edges, None, 4, add_self_loops=True)
        direct = conv(x, edges)
        via_plan = conv(x, plan=plan)
        np.testing.assert_allclose(via_plan.data, direct.data)

    def test_self_loop_mismatch_rejected(self):
        from repro.nn.segments import build_conv_plan

        conv, x, edges = self._setup(add_self_loops=True)
        plan = build_conv_plan(edges, None, 4, add_self_loops=False)
        with pytest.raises(ValueError, match="add_self_loops"):
            conv(x, plan=plan)

    def test_mismatch_rejected_both_directions(self):
        from repro.nn.segments import build_conv_plan

        conv, x, edges = self._setup(add_self_loops=False)
        plan = build_conv_plan(edges, None, 4, add_self_loops=True)
        with pytest.raises(ValueError, match="add_self_loops"):
            conv(x, plan=plan)

    def test_node_count_mismatch_still_rejected(self):
        from repro.nn.segments import build_conv_plan

        conv, x, edges = self._setup()
        plan = build_conv_plan(edges, None, 9, add_self_loops=True)
        with pytest.raises(ValueError, match="nodes"):
            conv(x, plan=plan)
