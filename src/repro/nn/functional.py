"""Functional operations built on :mod:`repro.nn.tensor`.

Contains the graph-specific primitives the GNN needs — vectorized segment
reductions (``segment_sum`` / ``segment_max`` / ``segment_mean`` /
``segment_softmax``) implemented with the sort-based engine in
:mod:`repro.nn.segments` so no Python loop ever runs over nodes or edges —
plus generic tensor utilities (concat, stack, softmax, dropout, embedding
lookup).  Every segment op accepts either a raw id array or a prebuilt
:class:`~repro.nn.segments.SegmentIndex`; passing the latter lets callers
amortize the sort across the several reductions of one attention round.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.segments import (
    SegmentSpec,
    as_segment_index,
    scatter_add_rows,
    seg_counts,
    seg_max,
    seg_sum,
)
from repro.nn.tensor import Tensor


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    datas = [t.data for t in tensors]
    out_data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray):
        slicer = [slice(None)] * g.ndim
        grads = []
        for i in range(len(datas)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(slicer)])
        return tuple(grads)

    out = Tensor._make(out_data, tensors, backward)
    if out.requires_grad:
        out._parents = tuple(tensors)
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stack along a new axis."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g: np.ndarray):
        return tuple(np.take(g, i, axis=axis) for i in range(len(tensors)))

    out = Tensor._make(out_data, tensors, backward)
    if out.requires_grad:
        out._parents = tuple(tensors)
    return out


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise maximum; ties send the gradient to the first argument."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    take_a = (a.data >= b.data).astype(np.float32)
    out_data = np.maximum(a.data, b.data)

    def backward(g: np.ndarray):
        from repro.nn.tensor import _unbroadcast

        return (
            _unbroadcast(g * take_a, a.data.shape),
            _unbroadcast(g * (1.0 - take_a), b.data.shape),
        )

    out = Tensor._make(out_data, (a, b), backward)
    if out.requires_grad:
        out._parents = (a, b)
    return out


def elementwise_max(tensors: Sequence[Tensor]) -> Tensor:
    """Element-wise maximum across a list of same-shaped tensors.

    The paper stacks the per-relation GATv2 outputs and takes the max; this
    helper does exactly that without materializing the stacked array twice.
    """
    out = tensors[0]
    for t in tensors[1:]:
        out = maximum(out, t)
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    e = shifted.exp()
    return e / e.sum(axis=axis, keepdims=True)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: identity when ``not training`` or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(np.float32) / keep
    return x * Tensor(mask)


def embedding_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Gather rows of ``weight`` (the Embedding forward).

    ``indices`` is a plain integer array of any shape; the output has shape
    ``indices.shape + (dim,)``.  Backward scatter-adds with ``np.add.at``.
    """
    idx = np.asarray(indices)
    if idx.dtype.kind not in "iu":
        raise TypeError(f"embedding indices must be integers, got {idx.dtype}")
    out_data = weight.data[idx]
    shape = weight.data.shape

    def backward(g: np.ndarray):
        return (scatter_add_rows(shape[0], idx, g),)

    out = Tensor._make(out_data, (weight,), backward)
    if out.requires_grad:
        out._parents = (weight,)
    return out


# --------------------------------------------------------------------------
# Segment reductions — the message-passing workhorses.
# --------------------------------------------------------------------------


def segment_sum(x: Tensor, segment_ids: SegmentSpec, num_segments: int) -> Tensor:
    """Sum rows of ``x`` into ``num_segments`` buckets given by ``segment_ids``.

    ``x`` has shape ``(E, ...)``; the output has shape ``(num_segments, ...)``.
    Empty segments are zero.
    """
    si = as_segment_index(segment_ids, num_segments)
    out_data = seg_sum(x.data, si)
    ids = si.ids

    def backward(g: np.ndarray):
        return (g[ids],)

    out = Tensor._make(out_data, (x,), backward)
    if out.requires_grad:
        out._parents = (x,)
    return out


def segment_mean(x: Tensor, segment_ids: SegmentSpec, num_segments: int) -> Tensor:
    """Mean over each segment; empty segments are zero."""
    si = as_segment_index(segment_ids, num_segments)
    counts = np.maximum(seg_counts(si), 1.0)
    total = segment_sum(x, si, num_segments)
    inv = (1.0 / counts).reshape((num_segments,) + (1,) * (x.data.ndim - 1))
    return total * Tensor(inv)


def segment_max(x: Tensor, segment_ids: SegmentSpec, num_segments: int) -> Tensor:
    """Max over each segment; empty segments are zero, ties split the grad."""
    si = as_segment_index(segment_ids, num_segments)
    ids = si.ids
    out_data = seg_max(x.data, si, empty=-np.inf)
    out_data[~np.isfinite(out_data)] = 0.0

    winners = (x.data == out_data[ids]).astype(np.float32)
    win_counts = seg_sum(winners, si)
    denom = np.maximum(win_counts[ids], 1.0)
    share = winners / denom

    def backward(g: np.ndarray):
        return (g[ids] * share,)

    out = Tensor._make(out_data, (x,), backward)
    if out.requires_grad:
        out._parents = (x,)
    return out


def segment_softmax(scores: Tensor, segment_ids: SegmentSpec, num_segments: int) -> Tensor:
    """Softmax within each segment (GAT attention normalization).

    ``scores`` has shape ``(E,)`` or ``(E, H)``; normalization is independent
    per trailing column (multi-head).  The max-shift is detached, as in every
    standard implementation, so gradients flow only through exp/sum.
    """
    si = as_segment_index(segment_ids, num_segments)
    ids = si.ids
    shift_data = seg_max(scores.data, si, empty=-np.inf)
    shift_data[~np.isfinite(shift_data)] = 0.0
    shifted = scores - Tensor(shift_data[ids])
    e = shifted.exp()
    denom = segment_sum(e, si, num_segments)
    return e / (denom[ids] + 1e-16)


def clip_grad_norm(params: Sequence[Tensor], max_norm: float) -> float:
    """Scale gradients in-place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm.  Mirrors ``torch.nn.utils.clip_grad_norm_``.
    """
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad**2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params:
            if p.grad is not None:
                p.grad *= scale
    return norm


def pad_sequences(
    seqs: Sequence[np.ndarray], length: int, pad_value: int
) -> np.ndarray:
    """Pad/truncate integer sequences to ``length`` → array ``(N, length)``."""
    out = np.full((len(seqs), length), pad_value, dtype=np.int64)
    for i, s in enumerate(seqs):
        s = np.asarray(s, dtype=np.int64)[:length]
        out[i, : len(s)] = s
    return out
