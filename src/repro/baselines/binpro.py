"""BinPro reproduction: static code properties + bipartite matching.

Miyani et al. (2017) extract code properties from binary and source with
static analysis and match them with a bipartite assignment.  Here the
properties are opcode-class histograms, constants, and call fan-out per
*instruction-chunk*; chunks from the two sides are aligned with
``scipy.optimize.linear_sum_assignment`` (the Hungarian algorithm BinPro
uses) and the normalized assignment cost becomes the similarity score.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.data.pairs import MatchingPair
from repro.graphs.programl import NODE_INSTRUCTION, ProgramGraph

_OP_CLASSES = {
    "arith": {"add", "sub", "mul", "sdiv", "srem", "and", "or", "xor", "shl", "ashr"},
    "memory": {"load", "store", "alloca", "gep"},
    "control": {"br", "condbr", "ret", "phi", "unreachable"},
    "compare": {"icmp"},
    "call": {"call"},
}


def _chunk_features(graph: ProgramGraph, chunk: int = 24) -> np.ndarray:
    """Feature vectors for consecutive instruction chunks (pseudo-functions)."""
    opcodes = [
        t for t, ty in zip(graph.node_texts, graph.node_types) if ty == NODE_INSTRUCTION
    ]
    if not opcodes:
        return np.zeros((1, len(_OP_CLASSES)), dtype=np.float64)
    rows = []
    for start in range(0, len(opcodes), chunk):
        window = opcodes[start : start + chunk]
        row = [
            sum(1 for op in window if op in ops) / len(window)
            for ops in _OP_CLASSES.values()
        ]
        rows.append(row)
    return np.asarray(rows, dtype=np.float64)


class BinPro:
    """fit/score interface over chunk-level bipartite matching."""

    def __init__(self, chunk: int = 24):  # noqa: D107
        self.chunk = chunk

    def fit(self, train_pairs: Sequence[MatchingPair]) -> None:
        """BinPro needs no training; kept for interface symmetry."""

    def score(self, pairs: Sequence[MatchingPair]) -> np.ndarray:
        """Similarity in [0, 1] from the normalized assignment cost."""
        out = []
        for p in pairs:
            a = _chunk_features(p.left, self.chunk)
            b = _chunk_features(p.right, self.chunk)
            cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
            rows, cols = linear_sum_assignment(cost)
            matched = cost[rows, cols].mean() if len(rows) else 1.0
            size_ratio = min(len(a), len(b)) / max(len(a), len(b))
            out.append(float(np.exp(-3.0 * matched) * size_ratio))
        return np.asarray(out)
