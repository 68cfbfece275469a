"""LSTM encoder used by the XLIR(LSTM) baseline reproduction.

A standard single-layer LSTM unrolled in Python over the (short, padded)
token axis; each timestep is a fully vectorized batch update, so the Python
loop cost is O(T), not O(B·T).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.functional import concat
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


class LSTM(Module):
    """Single-layer LSTM: input ``(B, T, D_in)`` → hidden states ``(B, T, H)``."""

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        rng: Optional[np.random.Generator] = None,
    ):  # noqa: D107
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        scale = 1.0 / np.sqrt(hidden_dim)
        self.w_x = Parameter(
            (rng.uniform(-scale, scale, (input_dim, 4 * hidden_dim))).astype(np.float32),
            name="w_x",
        )
        self.w_h = Parameter(
            (rng.uniform(-scale, scale, (hidden_dim, 4 * hidden_dim))).astype(np.float32),
            name="w_h",
        )
        bias = np.zeros(4 * hidden_dim, dtype=np.float32)
        bias[hidden_dim : 2 * hidden_dim] = 1.0  # forget-gate bias = 1
        self.bias = Parameter(bias, name="bias")

    def forward(
        self, x: Tensor, mask: Optional[np.ndarray] = None
    ) -> Tuple[Tensor, Tensor]:
        """Run the recurrence.

        ``mask`` is an optional ``(B, T)`` 0/1 array; masked steps carry the
        previous state forward, so padding after the end of a sequence does
        not perturb the final hidden state.

        Returns ``(all_hidden, last_hidden)`` with shapes ``(B, T, H)`` and
        ``(B, H)``.
        """
        b, t, _ = x.shape
        h = Tensor(np.zeros((b, self.hidden_dim), dtype=np.float32))
        c = Tensor(np.zeros((b, self.hidden_dim), dtype=np.float32))
        hd = self.hidden_dim
        outputs = []
        for step in range(t):
            x_t = x[:, step, :]
            z = x_t @ self.w_x + h @ self.w_h + self.bias
            i_gate = z[:, 0 * hd : 1 * hd].sigmoid()
            f_gate = z[:, 1 * hd : 2 * hd].sigmoid()
            g_gate = z[:, 2 * hd : 3 * hd].tanh()
            o_gate = z[:, 3 * hd : 4 * hd].sigmoid()
            c_new = f_gate * c + i_gate * g_gate
            h_new = o_gate * c_new.tanh()
            if mask is not None:
                m = Tensor(mask[:, step : step + 1].astype(np.float32))
                h = h_new * m + h * (1.0 - m)
                c = c_new * m + c * (1.0 - m)
            else:
                h, c = h_new, c_new
            outputs.append(h.reshape(b, 1, hd))
        all_h = concat(outputs, axis=1)
        return all_h, h
