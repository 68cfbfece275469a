"""Coarse quantizer: deterministic k-means over candidate embeddings.

The scalable index (``ShardedEmbeddingIndex``) prunes a query's candidate
set *before* the exact pair-head rescoring pass: every corpus entry is
assigned to one of ``num_cells`` k-means cells at build time, and a query
only scores the entries living in its ``nprobe`` most promising cells.
This module owns the cell geometry:

* :meth:`CoarseQuantizer.fit` — Lloyd's algorithm with a k-means++-style
  seeding, pure numpy, fully deterministic for a given ``(seed, data)``
  (every random draw comes from one :func:`~repro.utils.rng.derive_rng`
  stream; empty cells are reseeded to the currently-farthest points in a
  fixed order, not resampled);
* :meth:`assign` — exact nearest-centroid cell ids for a matrix of rows,
  computed block-wise so the distance matrix never materializes at
  corpus scale;
* :meth:`to_manifest` / :meth:`from_manifest` — JSON round trip through
  the index manifest.  Centroids travel as float64 lists, which represent
  every float32 value exactly, so a reopened index probes bit-identical
  cells.

The quantizer is deliberately metric-agnostic: it partitions embedding
space by L2, while *query-time* cell ranking is done by the caller with
the learned pair head (see ``ShardedEmbeddingIndex._ann_candidates``) so
the pruning order agrees with the scorer that produces the final ranking.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.rng import derive_rng

# Assignment works on row blocks so the (rows, cells) distance matrix is
# bounded regardless of corpus size.
_ASSIGN_BLOCK_ROWS = 8192


def _nearest(
    x: np.ndarray, centroids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row ``(argmin cell, squared L2 distance)`` against ``centroids``."""
    assign = np.empty(x.shape[0], dtype=np.int32)
    dist = np.empty(x.shape[0], dtype=np.float64)
    c64 = centroids.astype(np.float64)
    c_sq = np.einsum("kd,kd->k", c64, c64)
    for start in range(0, x.shape[0], _ASSIGN_BLOCK_ROWS):
        block = x[start : start + _ASSIGN_BLOCK_ROWS].astype(np.float64)
        d2 = np.einsum("nd,nd->n", block, block)[:, None]
        d2 = d2 - 2.0 * (block @ c64.T) + c_sq[None, :]
        best = np.argmin(d2, axis=1)
        rows = np.arange(block.shape[0])
        assign[start : start + block.shape[0]] = best.astype(np.int32)
        dist[start : start + block.shape[0]] = np.maximum(d2[rows, best], 0.0)
    return assign, dist


class CoarseQuantizer:
    """A fitted set of k-means centroids partitioning embedding space."""

    def __init__(self, centroids: np.ndarray):  # noqa: D107
        centroids = np.atleast_2d(np.asarray(centroids, dtype=np.float32))
        if centroids.shape[0] < 1:
            raise ValueError("a quantizer needs at least one centroid")
        self.centroids = centroids

    @property
    def num_cells(self) -> int:
        """How many cells the quantizer partitions space into."""
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        """Embedding dimensionality the centroids live in."""
        return self.centroids.shape[1]

    # -------------------------------------------------------------- fitting
    @classmethod
    def fit(
        cls,
        embeddings: np.ndarray,
        num_cells: int,
        seed: int = 0,
        iters: int = 8,
    ) -> "CoarseQuantizer":
        """Fit ``num_cells`` centroids to ``embeddings`` deterministically.

        ``num_cells`` is clamped to the number of training rows.  The same
        ``(embeddings, num_cells, seed, iters)`` always produces the same
        centroids, bit for bit — the property every recall-vs-exact gate
        in the benches relies on.
        """
        x = np.atleast_2d(np.asarray(embeddings, dtype=np.float32))
        n = x.shape[0]
        if n == 0:
            raise ValueError("cannot fit a quantizer on zero embeddings")
        if num_cells < 1:
            raise ValueError(f"num_cells must be >= 1, got {num_cells}")
        if iters < 1:
            raise ValueError(f"iters must be >= 1, got {iters}")
        k = min(int(num_cells), n)
        rng = derive_rng(seed, "coarse-quantizer", n, k)
        centroids = np.empty((k, x.shape[1]), dtype=np.float32)
        # k-means++-style seeding: first centroid uniform, later ones drawn
        # proportionally to squared distance from the chosen set.
        centroids[0] = x[int(rng.integers(n))]
        _, d2 = _nearest(x, centroids[:1])
        for j in range(1, k):
            total = float(d2.sum())
            if total <= 0.0:
                # All remaining mass sits on already-chosen points
                # (duplicate-heavy data): fall back to a uniform draw.
                choice = int(rng.integers(n))
            else:
                choice = int(rng.choice(n, p=d2 / total))
            centroids[j] = x[choice]
            _, dj = _nearest(x, centroids[j : j + 1])
            d2 = np.minimum(d2, dj)
        for _ in range(iters):
            assign, dist = _nearest(x, centroids)
            counts = np.bincount(assign, minlength=k)
            sums = np.zeros((k, x.shape[1]), dtype=np.float64)
            np.add.at(sums, assign, x.astype(np.float64))
            updated = centroids.copy()
            nonempty = counts > 0
            updated[nonempty] = (
                sums[nonempty] / counts[nonempty, None]
            ).astype(np.float32)
            # Reseed empty cells from the farthest points, in a fixed
            # order, so k distinct training rows always yield k distinct,
            # non-empty cells.
            empty = np.flatnonzero(~nonempty)
            if empty.size:
                farthest = np.argsort(-dist, kind="stable")
                updated[empty] = x[farthest[: empty.size]]
            if np.array_equal(updated, centroids):
                break
            centroids = updated
        return cls(centroids)

    # ------------------------------------------------------------- queries
    def assign(self, embeddings: np.ndarray) -> np.ndarray:
        """Nearest-centroid cell id for every row, ``(N,) int32``."""
        x = np.atleast_2d(np.asarray(embeddings, dtype=np.float32))
        if x.shape[0] == 0:
            return np.zeros(0, dtype=np.int32)
        if x.shape[1] != self.dim:
            raise ValueError(f"rows have dim {x.shape[1]}, quantizer has {self.dim}")
        assign, _ = _nearest(x, self.centroids)
        return assign

    # ------------------------------------------------------- serialization
    def to_manifest(self) -> dict:
        """JSON-safe manifest payload; float64 lists round-trip exactly."""
        return {
            "num_cells": self.num_cells,
            "dim": self.dim,
            "centroids": [[float(v) for v in row] for row in self.centroids],
        }

    @classmethod
    def from_manifest(cls, payload: dict) -> "CoarseQuantizer":
        """Rebuild a quantizer persisted by :meth:`to_manifest`."""
        centroids = np.asarray(payload["centroids"], dtype=np.float32)
        if centroids.ndim != 2 or centroids.shape != (
            payload["num_cells"],
            payload["dim"],
        ):
            raise ValueError(
                "manifest quantizer is corrupt: centroid shape "
                f"{centroids.shape} does not match recorded "
                f"({payload.get('num_cells')}, {payload.get('dim')})"
            )
        return cls(centroids)
