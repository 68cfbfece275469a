"""Shared test utility: finite-difference gradient checking."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.nn.tensor import Tensor


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

