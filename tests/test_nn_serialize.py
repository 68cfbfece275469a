"""Tests for checkpoint serialization (repro.nn.serialize) and the
Module buffer registry it depends on."""

import numpy as np
import pytest

import repro.nn as nn
from repro.nn.module import Module, Parameter
from repro.nn.serialize import read_checkpoint, read_meta, save_state
from repro.nn.tensor import Tensor


class _Net(Module):
    def __init__(self):
        super().__init__()
        self.lin = nn.Linear(3, 2, rng=np.random.default_rng(0))
        self.norm = nn.BatchNorm1d(2)

    def forward(self, x):
        return self.norm(self.lin(x))


class TestStateDictBuffers:
    def test_state_dict_includes_buffers(self):
        net = _Net()
        state = net.state_dict()
        assert "buffer:norm.running_mean" in state
        assert "buffer:norm.running_var" in state

    def test_buffer_reassignment_stays_tracked(self):
        bn = nn.BatchNorm1d(2)
        bn.train()
        bn(Tensor(np.random.default_rng(0).normal(5, 1, (16, 2)).astype(np.float32)))
        state = bn.state_dict()
        assert state["buffer:running_mean"].max() > 0.1  # updated stats captured

    def test_load_restores_buffers(self):
        a, b = _Net(), _Net()
        a.train()
        a(Tensor(np.random.default_rng(1).normal(3, 2, (32, 3)).astype(np.float32)))
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(b.norm.running_mean, a.norm.running_mean)
        np.testing.assert_allclose(b.norm.running_var, a.norm.running_var)

    def test_load_rejects_missing_keys(self):
        net = _Net()
        state = net.state_dict()
        del state["lin.weight"]
        with pytest.raises(KeyError):
            _Net().load_state_dict(state)

    def test_load_rejects_wrong_shape(self):
        net = _Net()
        state = net.state_dict()
        state["lin.weight"] = np.zeros((5, 5), dtype=np.float32)
        with pytest.raises(ValueError):
            _Net().load_state_dict(state)


def _load_into(module, path):
    """Load a checkpoint into ``module`` the way the trainer does."""
    meta, state, _ = read_checkpoint(path)
    module.load_state_dict(state)
    return meta


class TestNpzRoundTrip:
    def test_roundtrip_with_meta(self, tmp_path):
        net = _Net()
        path = tmp_path / "ckpt.npz"
        save_state(net, path, meta={"kind": "test", "dims": [3, 2]})
        other = _Net()
        other.lin.weight.data += 1.0  # perturb
        meta = _load_into(other, path)
        assert meta == {"kind": "test", "dims": [3, 2]}
        np.testing.assert_allclose(other.lin.weight.data, net.lin.weight.data)

    def test_roundtrip_without_meta(self, tmp_path):
        net = _Net()
        path = tmp_path / "ckpt2.npz"
        save_state(net, path)
        assert read_meta(path) is None
        assert _load_into(_Net(), path) is None

    def test_read_meta_only(self, tmp_path):
        net = _Net()
        path = tmp_path / "ckpt3.npz"
        save_state(net, path, meta={"epoch": 7})
        assert read_meta(path)["epoch"] == 7

    def test_extension_appended_on_load(self, tmp_path):
        net = _Net()
        base = tmp_path / "model"
        save_state(net, base, meta={"x": 1})  # numpy appends .npz
        assert read_meta(base)["x"] == 1

    def test_wrong_architecture_never_half_loads(self, tmp_path):
        net = _Net()
        path = tmp_path / "ckpt4.npz"
        save_state(net, path)

        class _Other(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.zeros(4, dtype=np.float32), name="w")

        with pytest.raises(KeyError):
            _load_into(_Other(), path)
