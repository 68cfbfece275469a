"""Shared test utilities: finite-difference gradient checking and the
shared-memory leak audit."""

from __future__ import annotations

import os
from typing import Callable, List, Sequence

import numpy as np

from repro.nn.tensor import Tensor
from repro.utils.shm import SHM_DIR, SHM_PREFIX


def numeric_grad(
    fn: Callable[[], Tensor], param: Tensor, eps: float = 1e-2
) -> np.ndarray:
    """Central-difference gradient of scalar ``fn()`` w.r.t. ``param``.

    ``fn`` must re-run the full forward pass reading ``param.data``.
    float32 arithmetic limits accuracy, so callers compare with loose
    tolerances (rtol ~ 1e-2).
    """
    grad = np.zeros_like(param.data, dtype=np.float64)
    flat = param.data.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(fn().data)
        flat[i] = orig - eps
        lo = float(fn().data)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def check_gradients(
    fn: Callable[[], Tensor],
    params: Sequence[Tensor],
    rtol: float = 5e-2,
    atol: float = 5e-3,
) -> None:
    """Assert autograd gradients match finite differences for each param."""
    for p in params:
        p.zero_grad()
    loss = fn()
    loss.backward()
    for p in params:
        assert p.grad is not None, "parameter received no gradient"
        num = numeric_grad(fn, p)
        np.testing.assert_allclose(p.grad, num, rtol=rtol, atol=atol)


def leaked_segments(prefix: str = SHM_PREFIX) -> List[str]:
    """Names of live ``/dev/shm`` segments matching ``prefix``."""
    try:
        entries = os.listdir(SHM_DIR)
    except OSError:
        return []  # no /dev/shm (non-Linux): nothing to audit
    return sorted(e for e in entries if e.startswith(prefix))
