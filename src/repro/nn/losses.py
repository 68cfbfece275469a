"""Loss functions: binary cross-entropy (the paper's loss) and triplet loss
(used by the XLIR baseline reproduction, which trains with a ternary loss)."""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor


def binary_cross_entropy(pred: Tensor, target: np.ndarray, eps: float = 1e-7) -> Tensor:
    """BCE on probabilities (post-sigmoid), averaged over the batch.

    ``pred`` holds values in (0, 1); ``target`` is a 0/1 float array of the
    same shape.  Predictions are clipped for numerical stability, matching
    ``torch.nn.BCELoss`` semantics.
    """
    t = np.asarray(target, dtype=np.float32)
    p = pred.clip(eps, 1.0 - eps)
    loss = -(Tensor(t) * p.log() + Tensor(1.0 - t) * (1.0 - p).log())
    return loss.mean()


def triplet_margin_loss(
    anchor: Tensor, positive: Tensor, negative: Tensor, margin: float = 0.5
) -> Tensor:
    """Triplet loss ``max(0, d(a,p) − d(a,n) + margin)`` with squared-L2 rows.

    XLIR maps binary and source embeddings into a common space with a ternary
    (triplet) objective; this is that objective.
    """
    d_pos = ((anchor - positive) ** 2).sum(axis=-1)
    d_neg = ((anchor - negative) ** 2).sum(axis=-1)
    zero = Tensor(np.zeros(d_pos.shape, dtype=np.float32))
    from repro.nn.functional import maximum

    return maximum(d_pos - d_neg + margin, zero).mean()
