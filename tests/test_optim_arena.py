"""Parity tests: fused (ParameterArena) optimizers vs the reference loops.

The fused paths must be *bit-identical* to the per-parameter reference
implementations — any divergence compounds over a training run — including
the awkward cases: parameters whose ``grad`` is ``None`` (skipped, moments
untouched), ``weight_decay > 0``, and external weight surgery
(``load_state_dict``) between steps.
"""

import numpy as np
import pytest

from repro.nn.functional import clip_grad_norm
from repro.nn.module import Parameter
from repro.nn.optim import Adam, ParameterArena


def make_params(seed=0):
    rng = np.random.default_rng(seed)
    shapes = [(5, 7), (32,), (3, 3, 4), (1,), (16, 8)]
    return [Parameter(rng.standard_normal(s).astype(np.float32)) for s in shapes]


def make_grads(params, seed=1, scale=1.0):
    rng = np.random.default_rng(seed)
    return [
        (rng.standard_normal(p.data.shape) * scale).astype(np.float32) for p in params
    ]


def clone_of(params):
    clones = make_params()
    for src, dst in zip(params, clones):
        dst.data[...] = src.data
    return clones


def assert_params_equal(ref, fused):
    for i, (a, b) in enumerate(zip(ref, fused)):
        np.testing.assert_array_equal(a.data, b.data, err_msg=f"param {i}")


def set_grads(params, grads, missing=()):
    for i, (p, g) in enumerate(zip(params, grads)):
        p.grad = None if i in missing else g.copy()


class TestParameterArena:
    def test_data_becomes_views_with_same_values(self):
        params = make_params()
        before = [p.data.copy() for p in params]
        arena = ParameterArena(params)
        for p, orig in zip(params, before):
            assert p.data.base is arena.flat
            np.testing.assert_array_equal(p.data, orig)

    def test_flat_write_reaches_params(self):
        params = make_params()
        arena = ParameterArena(params)
        arena.flat[:] = 3.0
        assert all(np.all(p.data == 3.0) for p in params)

    def test_gather_reports_missing_and_zeroes_slices(self):
        params = make_params()
        arena = ParameterArena(params)
        grads = make_grads(params)
        arena.grad_flat[:] = 7.0  # stale values must not survive a gather
        set_grads(params, grads, missing={1, 3})
        missing = arena.gather()
        assert missing == [1, 3]
        for i, (o, n) in enumerate(arena.slices):
            expected = np.zeros(n) if i in missing else grads[i].ravel()
            np.testing.assert_array_equal(arena.grad_flat[o : o + n], expected)

    def test_adopt_reabsorbs_external_assignment(self):
        params = make_params()
        arena = ParameterArena(params)
        replacement = np.full(params[0].data.shape, 2.5, dtype=np.float32)
        params[0].data = replacement.copy()  # e.g. load_state_dict
        arena.adopt()
        assert params[0].data.base is arena.flat
        np.testing.assert_array_equal(params[0].data, replacement)

    def test_adopt_rejects_shape_change(self):
        params = make_params()
        arena = ParameterArena(params)
        params[0].data = np.zeros(3, dtype=np.float32)
        with pytest.raises(ValueError, match="shape changed"):
            arena.adopt()


class TestAdamParity:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.013])
    def test_bitwise_over_steps(self, weight_decay):
        ref = make_params()
        fused = clone_of(ref)
        opt_ref = Adam(ref, lr=2e-3, weight_decay=weight_decay, fused=False)
        opt_fused = Adam(fused, lr=2e-3, weight_decay=weight_decay, fused=True)
        for step in range(7):
            grads = make_grads(ref, seed=10 + step)
            set_grads(ref, grads)
            set_grads(fused, grads)
            opt_ref.step()
            opt_fused.step()
            assert_params_equal(ref, fused)

    def test_missing_grads_skip_params_and_moments(self):
        ref = make_params()
        fused = clone_of(ref)
        opt_ref = Adam(ref, lr=1e-2, fused=False)
        opt_fused = Adam(fused, lr=1e-2, fused=True)
        # Build up nonzero moments first, then drop grads for two params:
        # the reference loop's `continue` leaves weights AND moments frozen.
        for step in range(3):
            grads = make_grads(ref, seed=20 + step)
            missing = {0, 4} if step == 1 else set()
            set_grads(ref, grads, missing)
            set_grads(fused, grads, missing)
            opt_ref.step()
            opt_fused.step()
            assert_params_equal(ref, fused)
        state_ref = opt_ref.state_export()
        state_fused = opt_fused.state_export()
        np.testing.assert_array_equal(state_ref["m"], state_fused["m"])
        np.testing.assert_array_equal(state_ref["v"], state_fused["v"])

    def test_all_grads_missing_is_noop(self):
        fused = make_params()
        before = [p.data.copy() for p in fused]
        opt = Adam(fused, lr=1e-2, fused=True)
        for p in fused:
            p.grad = None
        opt.step()
        assert_params_equal([Parameter(b) for b in before], fused)
        assert opt.t == 1  # the loop also advances t on empty steps

    def test_state_roundtrip_across_flavors(self):
        ref = make_params()
        fused = clone_of(ref)
        opt_ref = Adam(ref, lr=1e-3, fused=False)
        opt_fused = Adam(fused, lr=1e-3, fused=True)
        for step in range(3):
            grads = make_grads(ref, seed=30 + step)
            set_grads(ref, grads)
            opt_ref.step()
        # Reference-trained state imports into a fused optimizer and both
        # continue to identical weights.
        opt_fused.state_import(opt_ref.state_export())
        for p_ref, p_fused in zip(ref, fused):
            p_fused.data[...] = p_ref.data
        grads = make_grads(ref, seed=99)
        set_grads(ref, grads)
        set_grads(fused, grads)
        opt_ref.step()
        opt_fused.step()
        assert_params_equal(ref, fused)

    def test_state_import_rejects_wrong_size(self):
        opt = Adam(make_params(), fused=True)
        with pytest.raises(ValueError, match="size mismatch"):
            opt.state_import({"algo": "adam", "t": 1, "m": np.zeros(3), "v": np.zeros(3)})

    def test_state_import_rejects_wrong_algo(self):
        opt = Adam(make_params(), fused=True)
        with pytest.raises(ValueError, match="not an Adam state"):
            opt.state_import({"algo": "sgd", "velocity": np.zeros(3)})


class TestFusedClip:
    def test_norm_and_grads_bitwise(self):
        ref = make_params()
        fused = clone_of(ref)
        grads = make_grads(ref, seed=5, scale=4.0)
        set_grads(ref, grads, missing={1})
        set_grads(fused, grads, missing={1})
        opt = Adam(fused, fused=True)
        norm_ref = clip_grad_norm(ref, 1.0)
        norm_fused = opt.clip_grad_norm(1.0)
        assert norm_ref == norm_fused
        for i, (a, b) in enumerate(zip(ref, fused)):
            if i == 1:
                assert a.grad is None and b.grad is None
            else:
                np.testing.assert_array_equal(a.grad, b.grad, err_msg=f"grad {i}")

    def test_below_threshold_leaves_grads_untouched(self):
        fused = make_params()
        grads = make_grads(fused, seed=6, scale=1e-4)
        set_grads(fused, grads)
        opt = Adam(fused, fused=True)
        norm = opt.clip_grad_norm(1e9)
        assert norm < 1e9
        for p, g in zip(fused, grads):
            np.testing.assert_array_equal(p.grad, g)

    def test_clip_then_step_consumes_scaled_grads(self):
        ref = make_params()
        fused = clone_of(ref)
        grads = make_grads(ref, seed=7, scale=10.0)
        set_grads(ref, grads)
        set_grads(fused, grads)
        opt_ref = Adam(ref, lr=1e-2, fused=False)
        opt_fused = Adam(fused, lr=1e-2, fused=True)
        clip_grad_norm(ref, 0.5)
        opt_fused.clip_grad_norm(0.5)
        opt_ref.step()
        opt_fused.step()
        assert_params_equal(ref, fused)


def make_exact_grads(params, seed=1):
    """Gradients whose values (and small sums of them) are float32-exact.

    Multiples of 1/8 with small magnitude: summing a few of them stays
    exactly representable, so buffer accumulation has a well-defined
    bit-exact reference.
    """
    rng = np.random.default_rng(seed)
    return [
        (rng.integers(-16, 17, size=p.data.shape) / 8.0).astype(np.float32)
        for p in params
    ]


class TestDirectGradBuffers:
    """Backward accumulates straight into the arena (the fused fast path)."""

    def test_backward_lands_in_arena_without_copy(self):
        params = make_params()
        arena = ParameterArena(params)
        grads = make_exact_grads(params)
        for p, g in zip(params, grads):
            p._accumulate(g)  # what Tensor.backward calls
            p._accumulate(g)
        for p, gview, g in zip(params, arena.grad_views, grads):
            assert p.grad is gview  # no per-step allocation, no copy
            np.testing.assert_array_equal(p.grad, g + g)
        missing = arena.gather()  # nothing to copy, nothing missing
        assert missing == []
        for (o, n), g in zip(arena.slices, grads):
            np.testing.assert_array_equal(
                arena.grad_flat[o : o + n], (g + g).ravel()
            )

    def test_buffer_accumulation_matches_reference_bitwise(self):
        direct = make_params()
        ParameterArena(direct)
        plain = clone_of(direct)
        grads_a = make_exact_grads(direct, seed=70)
        grads_b = make_exact_grads(direct, seed=71)
        for p, a, b in zip(direct, grads_a, grads_b):
            p._accumulate(a)
            p._accumulate(b)
        for p, a, b in zip(plain, grads_a, grads_b):
            p._accumulate(a)
            p._accumulate(b)
        for i, (d, p) in enumerate(zip(direct, plain)):
            np.testing.assert_array_equal(d.grad, p.grad, err_msg=f"param {i}")

    def test_clip_does_not_double_scale_view_backed_grads(self):
        params = make_params()
        opt = Adam(params, fused=True)
        grads = make_exact_grads(params)
        for p, g in zip(params, grads):
            p._accumulate(g * np.float32(8.0))  # force norm > max_norm
        ref = clone_of(params)
        opt_ref = Adam(ref, fused=False)
        for p, g in zip(ref, grads):
            p.grad = g * np.float32(8.0)
        norm_fused = opt.clip_grad_norm(1.0)
        norm_ref = opt_ref.clip_grad_norm(1.0)
        assert norm_fused == norm_ref
        for i, (a, b) in enumerate(zip(params, ref)):
            np.testing.assert_array_equal(a.grad, b.grad, err_msg=f"grad {i}")


class TestZeroGrad:
    def test_clears_all_grads(self):
        params = make_params()
        opt = Adam(params, fused=True)
        set_grads(params, make_grads(params))
        opt.zero_grad()
        assert all(p.grad is None for p in params)

    def test_weight_surgery_between_steps_is_adopted(self):
        # Early stopping calls load_state_dict, which replaces p.data with
        # fresh arrays; the next fused step must pick those values up.
        params = make_params()
        opt = Adam(params, lr=1e-2, fused=True)
        set_grads(params, make_grads(params))
        opt.step()
        surgery = np.zeros_like(params[0].data)
        params[0].data = surgery.copy()
        set_grads(params, make_grads(params, seed=50))
        opt.step()
        assert params[0].data.base is opt.arena.flat
        # The step moved the zeroed weights, starting from the new values.
        assert not np.array_equal(params[0].data, surgery)
        assert float(np.max(np.abs(params[0].data))) < 0.1
