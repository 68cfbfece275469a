"""Core neural layers: Linear, Embedding, LayerNorm, BatchNorm1d, Dropout.

These mirror their PyTorch namesakes closely enough that the GraphBinMatch
architecture description in the paper (embedding dim 128, LayerNorm after
each conv, dropout before the last linear) translates line for line.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import init
from repro.nn.functional import dropout as dropout_fn
from repro.nn.functional import embedding_lookup
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


class Linear(Module):
    """Affine map ``y = x W + b`` with PyTorch-default initialization."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):  # noqa: D107
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.kaiming_uniform(rng, in_features, (in_features, out_features)),
            name="weight",
        )
        self.bias = (
            Parameter(init.kaiming_uniform(rng, in_features, (out_features,)), name="bias")
            if bias
            else None
        )

    def forward(self, x: Tensor) -> Tensor:
        """Apply the affine map to the last axis of ``x``."""
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Token-id → dense vector lookup table.

    ``padding_idx`` rows start at zero and — like PyTorch — still receive
    gradient unless the caller masks them; GraphBinMatch masks PAD positions
    before its max-reduction, so this matches the paper's pipeline.
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        padding_idx: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ):  # noqa: D107
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        table = init.normal(rng, (num_embeddings, embedding_dim), std=0.02)
        if padding_idx is not None:
            table[padding_idx] = 0.0
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.padding_idx = padding_idx
        self.weight = Parameter(table, name="weight")

    def forward(self, indices: np.ndarray) -> Tensor:
        """Look up rows; ``indices`` is an integer ndarray of any shape."""
        return embedding_lookup(self.weight, indices)


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5):  # noqa: D107
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.gamma = Parameter(np.ones(dim, dtype=np.float32), name="gamma")
        self.beta = Parameter(np.zeros(dim, dtype=np.float32), name="beta")

    def forward(self, x: Tensor) -> Tensor:
        """Normalize the last axis to zero mean / unit variance, then scale."""
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered / (var + self.eps).sqrt()
        return normed * self.gamma + self.beta


class BatchNorm1d(Module):
    """Batch normalization over axis 0 with running statistics.

    Normalizes each feature across the batch: in training mode batch
    statistics are used (and folded into the running estimates); in eval
    mode the running estimates are used, so inference is deterministic and
    batch-size independent.  GraphBinMatch applies this to pooled *graph*
    embeddings, whose population shares a large mean component (common
    instructions dominate every program); centering across the batch removes
    it exactly and conditions the pair head.
    """

    def __init__(self, dim: int, eps: float = 1e-5, momentum: float = 0.1):  # noqa: D107
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(dim, dtype=np.float32), name="gamma")
        self.beta = Parameter(np.zeros(dim, dtype=np.float32), name="beta")
        self.register_buffer("running_mean", np.zeros(dim, dtype=np.float32))
        self.register_buffer("running_var", np.ones(dim, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        """Normalize ``(B, dim)`` rows feature-wise."""
        if self.training and x.shape[0] > 1:
            mu = x.mean(axis=0, keepdims=True)
            centered = x - mu
            var = (centered * centered).mean(axis=0, keepdims=True)
            m = self.momentum
            self.running_mean = (1 - m) * self.running_mean + m * mu.data.reshape(-1)
            self.running_var = (1 - m) * self.running_var + m * var.data.reshape(-1)
        else:
            mu = Tensor(self.running_mean[None, :])
            centered = x - mu
            var = Tensor(self.running_var[None, :])
        normed = centered / (var + self.eps).sqrt()
        return normed * self.gamma + self.beta


class Dropout(Module):
    """Inverted dropout; active only in training mode."""

    def __init__(self, p: float, rng: Optional[np.random.Generator] = None):  # noqa: D107
        super().__init__()
        self.p = p
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        """Randomly zero elements with probability ``p`` during training."""
        return dropout_fn(x, self.p, self.rng, self.training)
