"""Tests for layers, modules, optimizers, losses, LSTM, transformer."""

import numpy as np
import pytest

import repro.nn as nn
from repro.nn.tensor import Tensor
from tests.helpers import check_gradients


def _rng(seed=0):
    return np.random.default_rng(seed)


class _TwoLayer(nn.Module):
    """A small container: two Linear layers held in a ModuleList."""

    def __init__(self, dims, rng):
        super().__init__()
        self.layers = nn.ModuleList(
            [nn.Linear(dims[i], dims[i + 1], rng=rng) for i in range(len(dims) - 1)]
        )

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x


class TestLinear:
    def test_forward_shape(self):
        layer = nn.Linear(4, 3, rng=_rng())
        out = layer(Tensor(np.ones((2, 4), dtype=np.float32)))
        assert out.shape == (2, 3)

    def test_no_bias(self):
        layer = nn.Linear(4, 3, bias=False, rng=_rng())
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_gradcheck(self):
        layer = nn.Linear(3, 2, rng=_rng(1))
        x = Tensor(_rng(2).standard_normal((4, 3)).astype(np.float32))
        check_gradients(lambda: (layer(x) ** 2).sum(), layer.parameters())

    def test_batched_input(self):
        layer = nn.Linear(3, 2, rng=_rng())
        out = layer(Tensor(np.zeros((2, 5, 3), dtype=np.float32)))
        assert out.shape == (2, 5, 2)


class TestEmbedding:
    def test_padding_idx_zero_initialized(self):
        emb = nn.Embedding(10, 4, padding_idx=0, rng=_rng())
        np.testing.assert_allclose(emb.weight.data[0], 0.0)

    def test_forward(self):
        emb = nn.Embedding(10, 4, rng=_rng())
        out = emb(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)

    def test_grad_flows_to_table(self):
        emb = nn.Embedding(5, 3, rng=_rng())
        emb(np.array([1, 1])).sum().backward()
        np.testing.assert_allclose(emb.weight.grad[1], 2.0)


class TestLayerNorm:
    def test_normalizes(self):
        ln = nn.LayerNorm(8)
        x = Tensor(_rng(0).standard_normal((4, 8)).astype(np.float32) * 10 + 5)
        out = ln(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_gradcheck(self):
        ln = nn.LayerNorm(4)
        x = Tensor(_rng(1).standard_normal((2, 4)).astype(np.float32))
        w = Tensor(_rng(2).standard_normal((2, 4)).astype(np.float32))
        check_gradients(lambda: (ln(x) * w).sum(), ln.parameters())

    def test_input_gradcheck(self):
        ln = nn.LayerNorm(4)
        x = Tensor(_rng(3).standard_normal((2, 4)).astype(np.float32), requires_grad=True)
        w = Tensor(_rng(4).standard_normal((2, 4)).astype(np.float32))
        check_gradients(lambda: (ln(x) * w).sum(), [x])


class TestDropoutLayer:
    def test_train_vs_eval(self):
        d = nn.Dropout(0.5, rng=_rng())
        x = Tensor(np.ones((100,), dtype=np.float32))
        d.train()
        assert (d(x).data == 0).any()
        d.eval()
        np.testing.assert_allclose(d(x).data, 1.0)


class TestContainers:
    def test_module_list_iteration(self):
        ml = nn.ModuleList([nn.Linear(2, 2, rng=_rng()) for _ in range(3)])
        assert len(ml) == 3
        assert len(list(iter(ml))) == 3
        assert isinstance(ml[1], nn.Linear)

    def test_module_dict(self):
        md = nn.ModuleDict({"a": nn.Linear(2, 2, rng=_rng())})
        assert "a" in md
        assert isinstance(md["a"], nn.Linear)

    def test_named_parameters_dotted(self):
        net = _TwoLayer([2, 3, 1], rng=_rng())
        names = [n for n, _ in net.named_parameters()]
        assert "layers.0.weight" in names
        assert "layers.1.bias" in names

    def test_state_dict_roundtrip(self):
        a = _TwoLayer([3, 4, 2], rng=_rng(1))
        b = _TwoLayer([3, 4, 2], rng=_rng(2))
        b.load_state_dict(a.state_dict())
        x = Tensor(_rng(0).standard_normal((2, 3)).astype(np.float32))
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_load_state_dict_rejects_mismatch(self):
        a = _TwoLayer([3, 4, 2], rng=_rng())
        with pytest.raises(KeyError):
            a.load_state_dict({"bogus": np.zeros(2)})

    def test_zero_grad_clears_all(self):
        net = _TwoLayer([2, 2], rng=_rng())
        net(Tensor(np.ones((1, 2), dtype=np.float32))).sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())


class TestOptimizers:
    def _quadratic_setup(self):
        w = nn.Parameter(np.array([5.0, -3.0], dtype=np.float32))
        return w

    def test_adam_descends(self):
        w = self._quadratic_setup()
        opt = nn.Adam([w], lr=0.2)
        for _ in range(200):
            opt.zero_grad()
            (w * w).sum().backward()
            opt.step()
        np.testing.assert_allclose(w.data, 0.0, atol=1e-2)

    def test_adam_skips_gradless_params(self):
        w = self._quadratic_setup()
        frozen = nn.Parameter(np.array([1.0], dtype=np.float32))
        opt = nn.Adam([w, frozen], lr=0.1)
        opt.zero_grad()
        (w * w).sum().backward()
        opt.step()
        np.testing.assert_allclose(frozen.data, [1.0])


class TestLosses:
    def test_bce_perfect_prediction_near_zero(self):
        pred = Tensor(np.array([0.999, 0.001], dtype=np.float32))
        loss = nn.binary_cross_entropy(pred, np.array([1.0, 0.0]))
        assert loss.item() < 0.01

    def test_bce_wrong_prediction_large(self):
        pred = Tensor(np.array([0.01], dtype=np.float32))
        loss = nn.binary_cross_entropy(pred, np.array([1.0]))
        assert loss.item() > 2.0

    def test_bce_gradcheck(self):
        logits = Tensor(
            _rng(0).standard_normal(6).astype(np.float32), requires_grad=True
        )
        target = (_rng(1).random(6) > 0.5).astype(np.float32)
        check_gradients(
            lambda: nn.binary_cross_entropy(logits.sigmoid(), target), [logits]
        )

    def test_triplet_zero_when_separated(self):
        a = Tensor(np.zeros((2, 4), dtype=np.float32))
        p = Tensor(np.zeros((2, 4), dtype=np.float32))
        n = Tensor(np.full((2, 4), 10.0, dtype=np.float32))
        assert nn.triplet_margin_loss(a, p, n, margin=0.5).item() == 0.0

    def test_triplet_positive_when_collapsed(self):
        a = Tensor(np.zeros((1, 4), dtype=np.float32))
        loss = nn.triplet_margin_loss(a, a, a, margin=0.5)
        assert loss.item() == pytest.approx(0.5)


class TestLSTM:
    def test_shapes(self):
        lstm = nn.LSTM(4, 8, rng=_rng())
        x = Tensor(np.zeros((2, 5, 4), dtype=np.float32))
        all_h, last_h = lstm(x)
        assert all_h.shape == (2, 5, 8)
        assert last_h.shape == (2, 8)

    def test_mask_freezes_state(self):
        lstm = nn.LSTM(2, 4, rng=_rng(1))
        x = Tensor(_rng(0).standard_normal((1, 6, 2)).astype(np.float32))
        mask_full = np.ones((1, 6))
        mask_short = np.ones((1, 6))
        mask_short[:, 3:] = 0
        _, h_short = lstm(x, mask_short)
        # State after step 3 should equal state with only first 3 steps.
        x3 = Tensor(x.data[:, :3, :])
        _, h3 = lstm(x3, np.ones((1, 3)))
        np.testing.assert_allclose(h_short.data, h3.data, rtol=1e-5)
        _, h_full = lstm(x, mask_full)
        assert not np.allclose(h_full.data, h_short.data)

    def test_gradient_flows_through_time(self):
        lstm = nn.LSTM(2, 3, rng=_rng(2))
        x = Tensor(
            _rng(1).standard_normal((2, 4, 2)).astype(np.float32), requires_grad=True
        )
        _, h = lstm(x)
        (h * h).sum().backward()
        assert x.grad is not None
        assert np.abs(x.grad[:, 0, :]).sum() > 0  # first timestep got gradient


class TestTransformer:
    def test_encoder_shapes(self):
        enc = nn.TransformerEncoder(dim=8, heads=2, num_layers=2, rng=_rng())
        x = Tensor(np.zeros((2, 6, 8), dtype=np.float32))
        assert enc(x).shape == (2, 6, 8)

    def test_padding_mask_blocks_attention(self):
        enc = nn.TransformerEncoder(dim=8, heads=2, num_layers=1, rng=_rng(3))
        enc.eval()
        rng = _rng(4)
        x = rng.standard_normal((1, 4, 8)).astype(np.float32)
        mask = np.array([[1, 1, 0, 0]])
        out1 = enc(Tensor(x), mask).data[:, :2]
        x2 = x.copy()
        x2[:, 2:] = 99.0  # perturb masked positions only
        out2 = enc(Tensor(x2), mask).data[:, :2]
        np.testing.assert_allclose(out1, out2, rtol=1e-4, atol=1e-5)

    def test_gradients_reach_projections(self):
        enc = nn.TransformerEncoder(dim=8, heads=2, num_layers=1, rng=_rng(5))
        x = Tensor(_rng(6).standard_normal((2, 3, 8)).astype(np.float32))
        (enc(x) ** 2).sum().backward()
        grads = [p.grad for p in enc.parameters()]
        assert all(g is not None for g in grads)

    def test_sinusoidal_table_range(self):
        table = nn.attention.sinusoidal_positions(16, 8) if hasattr(nn, "attention") else None
        from repro.nn.attention import sinusoidal_positions

        table = sinusoidal_positions(16, 8)
        assert table.shape == (16, 8)
        assert np.all(np.abs(table) <= 1.0)
