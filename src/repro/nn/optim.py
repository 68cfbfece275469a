"""Optimizers: Adam, the paper's choice (lr 6.6e-5).

Adam runs **fused** by default: a :class:`ParameterArena` concatenates
every parameter into one contiguous float32 buffer (the parameters'
``.data`` become views into it) with a parallel flat gradient buffer,
and one step is a handful of whole-arena vectorized ops instead of a
Python loop over ~50 parameter tensors with fresh ``m_hat``/``v_hat``
allocations each.  At CPU scale the per-call NumPy dispatch overhead of
the loop dominated the optimizer's share of a training step; the arena
replaces ~8 small array ops *per parameter* with ~8 ops *total*.

The element-wise math mirrors the reference loop operation for operation
(same order, same scalar/array factor placement), so the fused update is
bit-identical to the per-parameter path for parameters that received
gradients; parameters whose ``grad`` is ``None`` are skipped exactly as
the loop skips them (their moments and weights are left untouched).  Pass
``fused=False`` to run the original reference loop — the parity tests in
``tests/test_optim_arena.py`` compare the two.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.module import Parameter


class ParameterArena:
    """Contiguous storage for a parameter list plus a flat gradient buffer.

    On construction every parameter's ``.data`` is copied into one float32
    buffer and replaced by a *view* into it, so a single in-place op on
    :attr:`flat` updates every weight.  Gradients get the same treatment
    in the other direction: each parameter's :attr:`~Parameter.grad_buffer`
    is attached to a view of :attr:`grad_flat`, so backward accumulates
    straight into the arena and :meth:`gather` usually has nothing to copy
    — it only reports which slices had no gradient (zeroing them) so steps
    can skip them exactly like the reference loop, and falls back to a
    ``copyto`` for gradients assigned externally (tests do this).

    The arena re-adopts parameters whose ``.data`` was reassigned from
    outside (e.g. ``load_state_dict`` during early stopping), so it is
    always consistent with external weight surgery.
    """

    def __init__(self, params: Sequence[Parameter]):  # noqa: D107
        self.params: List[Parameter] = list(params)
        self.slices: List[Tuple[int, int]] = []
        offset = 0
        for p in self.params:
            n = int(p.data.size)
            self.slices.append((offset, n))
            offset += n
        self.size = offset
        self.flat = np.zeros(self.size, dtype=np.float32)
        self.grad_flat = np.zeros(self.size, dtype=np.float32)
        self._views: List[np.ndarray] = []
        self.grad_views: List[np.ndarray] = []
        for p, (o, n) in zip(self.params, self.slices):
            self.flat[o : o + n] = np.asarray(p.data, dtype=np.float32).ravel()
            view = self.flat[o : o + n].reshape(p.data.shape)
            p.data = view
            self._views.append(view)
            gview = self.grad_flat[o : o + n].reshape(view.shape)
            p.grad_buffer = gview
            self.grad_views.append(gview)

    # ------------------------------------------------------------- adoption
    def adopt(self) -> None:
        """Re-absorb any parameter whose ``.data`` was replaced externally."""
        for p, view in zip(self.params, self._views):
            if p.data is not view:
                if p.data.shape != view.shape:
                    raise ValueError(
                        f"parameter shape changed under the arena: "
                        f"{view.shape} -> {p.data.shape}"
                    )
                view[...] = p.data
                p.data = view

    def gather(self) -> List[int]:
        """Make :attr:`grad_flat` consistent with the per-parameter grads.

        Gradients accumulated through :attr:`~Parameter.grad_buffer` are
        *already there* (the fast path — no copy); externally-assigned
        arrays are copied in.  Returns the indices of parameters whose
        ``grad`` is ``None``; their slices of the flat buffer are zeroed
        so norm computations see no stale values.
        """
        missing: List[int] = []
        gf = self.grad_flat
        for i, (p, gview, (o, n)) in enumerate(
            zip(self.params, self.grad_views, self.slices)
        ):
            g = p.grad
            if g is None:
                gf[o : o + n] = 0.0
                missing.append(i)
            elif g is not gview:
                np.copyto(gf[o : o + n], g.ravel())
        return missing


class Optimizer:
    """Base optimizer holding a parameter list (and, when fused, an arena)."""

    def __init__(self, params: Sequence[Parameter], fused: bool = True):  # noqa: D107
        self.params: List[Parameter] = list(params)
        self.fused = bool(fused)
        self.arena: Optional[ParameterArena] = (
            ParameterArena(self.params) if self.fused and self.params else None
        )
        self._gathered = False
        self._missing: List[int] = []

    def zero_grad(self) -> None:
        """Clear every parameter's gradient."""
        for p in self.params:
            p.grad = None
        self._gathered = False

    def clip_grad_norm(self, max_norm: float) -> float:
        """Fused global-norm clip over the flat gradient buffer.

        Gathers gradients into the arena (the following :meth:`step` reuses
        them without re-gathering) and applies at most one whole-arena
        scale.  The squared norm is accumulated per parameter slice in the
        exact order of :func:`repro.nn.functional.clip_grad_norm` — a
        single whole-buffer reduction would change the summation tree and
        therefore the last bits of the scale, and any bit of divergence
        compounds over a training run — so the fused path is bit-identical
        to the reference.  The per-parameter ``grad`` arrays are scaled too
        so external inspection stays consistent.  Falls back to the
        reference implementation when not fused.
        """
        if self.arena is None:
            from repro.nn.functional import clip_grad_norm as _clip

            return _clip(self.params, max_norm)
        self._missing = self.arena.gather()
        self._gathered = True
        gf = self.arena.grad_flat
        total = 0.0
        for o, n in self.arena.slices:
            # Missing-grad slices were zeroed by gather(): exact no-ops here.
            total += float((gf[o : o + n] ** 2).sum())
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            gf *= scale
            for p, gview in zip(self.params, self.arena.grad_views):
                # View-backed grads live *in* gf and were just scaled; a
                # second in-place multiply would square the scale on them.
                if p.grad is not None and p.grad is not gview:
                    p.grad *= scale
        return norm

    def _prepare_fused(self) -> List[int]:
        """Adopt external edits and make sure grads are gathered."""
        assert self.arena is not None
        self.arena.adopt()
        if not self._gathered:
            self._missing = self.arena.gather()
        self._gathered = False
        return self._missing

    def _missing_slices(self, missing: Sequence[int]):
        """Yield ``slice`` objects over the flat buffers for absent grads."""
        for i in missing:
            o, n = self.arena.slices[i]
            yield slice(o, o + n)

    def step(self) -> None:  # pragma: no cover - abstract
        """Apply one update using the current gradients."""
        raise NotImplementedError

    # -------------------------------------------------------- checkpointing
    def state_export(self) -> Dict[str, object]:  # pragma: no cover - abstract
        """Flat-array snapshot of the optimizer state (for checkpoints)."""
        raise NotImplementedError

    def state_import(self, state: Dict[str, object]) -> None:  # pragma: no cover
        """Restore a snapshot produced by :meth:`state_export`."""
        raise NotImplementedError

    def _flatten(self, per_param: Sequence[np.ndarray]) -> np.ndarray:
        return (
            np.concatenate([np.asarray(a, dtype=np.float32).ravel() for a in per_param])
            if per_param
            else np.zeros(0, dtype=np.float32)
        )

    def _split(self, flat: np.ndarray) -> List[np.ndarray]:
        flat = np.asarray(flat, dtype=np.float32)
        total = sum(p.data.size for p in self.params)
        if flat.size != total:
            raise ValueError(
                f"optimizer state size mismatch: checkpoint has {flat.size} "
                f"elements, model needs {total}"
            )
        out, offset = [], 0
        for p in self.params:
            n = p.data.size
            out.append(flat[offset : offset + n].reshape(p.data.shape).copy())
            offset += n
        return out


class Adam(Optimizer):
    """Adam (Kingma & Ba 2014) — the optimizer GraphBinMatch trains with."""

    def __init__(
        self,
        params,
        lr: float = 6.6e-5,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        fused: bool = True,
    ):  # noqa: D107
        super().__init__(params, fused=fused)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        if self.arena is not None:
            self._m_flat = np.zeros(self.arena.size, dtype=np.float32)
            self._v_flat = np.zeros(self.arena.size, dtype=np.float32)
            self._scratch = np.empty(self.arena.size, dtype=np.float32)
            self._upd = np.empty(self.arena.size, dtype=np.float32)
            self._m: List[np.ndarray] = []
            self._v: List[np.ndarray] = []
        else:
            self._m = [np.zeros_like(p.data) for p in self.params]
            self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """Standard bias-corrected Adam update."""
        if self.arena is not None:
            self._step_fused()
            return
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay > 0:
                g = g + self.weight_decay * p.data
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / b1t
            v_hat = v / b2t
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def _step_fused(self) -> None:
        """Whole-arena update, op-for-op the reference loop's arithmetic.

        Parameters without gradients keep their moments and weights exactly
        as the loop's ``continue`` leaves them: their moment slices are
        snapshotted before the vectorized update and restored after, and
        their weight delta is zeroed (missing parameters are rare — one
        snapshot per absent grad, never per step in the common all-present
        case).
        """
        missing = self._prepare_fused()
        arena = self.arena
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        m, v, scratch, upd = self._m_flat, self._v_flat, self._scratch, self._upd
        g = arena.grad_flat
        saved = [
            (sl, m[sl].copy(), v[sl].copy()) for sl in self._missing_slices(missing)
        ]
        if self.weight_decay > 0:
            np.multiply(arena.flat, np.float32(self.weight_decay), out=scratch)
            scratch += g
            g = scratch.copy()
        # m *= b1;  m += (1-b1)*g
        m *= np.float32(self.beta1)
        np.multiply(g, np.float32(1.0 - self.beta1), out=upd)
        m += upd
        # v *= b2;  v += (1-b2)*(g*g)
        v *= np.float32(self.beta2)
        np.multiply(g, g, out=upd)
        upd *= np.float32(1.0 - self.beta2)
        v += upd
        # upd = lr * (m/b1t) / (sqrt(v/b2t) + eps)
        np.divide(v, np.float32(b2t), out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += np.float32(self.eps)
        np.divide(m, np.float32(b1t), out=upd)
        upd *= np.float32(self.lr)
        upd /= scratch
        for (sl, m_snap, v_snap) in saved:
            m[sl] = m_snap
            v[sl] = v_snap
            upd[sl] = 0.0
        arena.flat -= upd

    def state_export(self) -> Dict[str, object]:
        """Step count plus first/second moments as flat arrays."""
        if self.arena is not None:
            m, v = self._m_flat.copy(), self._v_flat.copy()
        else:
            m, v = self._flatten(self._m), self._flatten(self._v)
        return {"algo": "adam", "t": int(self.t), "m": m, "v": v}

    def state_import(self, state: Dict[str, object]) -> None:
        """Restore step count and moments (resuming training continues them)."""
        if state.get("algo") != "adam":
            raise ValueError(f"not an Adam state: {state.get('algo')!r}")
        self.t = int(state["t"])
        if self.arena is not None:
            m = np.asarray(state["m"], dtype=np.float32)
            v = np.asarray(state["v"], dtype=np.float32)
            if m.size != self.arena.size or v.size != self.arena.size:
                raise ValueError("Adam state size mismatch")
            self._m_flat = m.copy()
            self._v_flat = v.copy()
        else:
            self._m = self._split(np.asarray(state["m"]))
            self._v = self._split(np.asarray(state["v"]))

