"""Node feature extraction: graph node strings → padded token-id matrices.

Implements §III-C: each node's feature is the tokenized ``full_text``
(complete instruction) with ``text`` (opcode only) as the fallback when
``full_text`` is unavailable, SSA variables normalized to ``[VAR]``, and
truncation/padding to the tokenizer's power-of-two length.  Setting
``mode="text"`` reproduces the ProGraML-default ablation of Table VIII.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

from repro.graphs.batch import GraphBatch
from repro.graphs.programl import ProgramGraph
from repro.tokenize.tokenizer import IRTokenizer


@dataclass
class NodeTokens:
    """Deduplicated node token ids: unique rows plus a per-node inverse.

    ``unique_ids[inverse]`` is the dense ``(num_nodes, L)`` matrix
    :func:`encode_nodes` returns.  :meth:`GraphBinMatch.node_features`
    consumes this form directly, running the embed/mask/reduce pipeline on
    the unique rows only.  Rows are deduplicated by token ids, after SSA
    names normalize to ``[VAR]``: a decompiled query averages 1335 nodes,
    1158 distinct strings but only 70 distinct rows.
    """

    unique_ids: np.ndarray  # (U, L)
    inverse: np.ndarray  # (num_nodes,)

    def dense(self) -> np.ndarray:
        """The equivalent per-node ``(num_nodes, L)`` id matrix."""
        return self.unique_ids[self.inverse]


def node_strings(graph_or_batch, mode: str = "full_text") -> List[str]:
    """Feature string per node: full_text with text fallback, or text only."""
    if mode not in ("full_text", "text"):
        raise ValueError(f"unknown feature mode {mode!r}")
    texts = graph_or_batch.node_texts
    fulls = graph_or_batch.node_full_texts
    if mode == "text":
        return list(texts)
    return [full if full else text for text, full in zip(texts, fulls)]


def train_tokenizer(
    graphs: Iterable[ProgramGraph], mode: str = "full_text", max_vocab: int = 2048
) -> IRTokenizer:
    """Fit the tokenizer on every node string of the training graphs."""
    corpus: List[str] = []
    for g in graphs:
        corpus.extend(node_strings(g, mode))
    return IRTokenizer(max_vocab=max_vocab).train(corpus)


def encode_nodes(
    tokenizer: IRTokenizer, batch: GraphBatch, mode: str = "full_text"
) -> np.ndarray:
    """Token-id matrix ``(num_nodes, truncation_length)`` for a batch."""
    return tokenizer.encode_batch(node_strings(batch, mode))


def encode_nodes_unique(
    tokenizer: IRTokenizer, batch: GraphBatch, mode: str = "full_text"
) -> NodeTokens:
    """Deduplicated :class:`NodeTokens` for a batch (see that class)."""
    mat, inverse = tokenizer.encode_unique(node_strings(batch, mode))
    return NodeTokens(mat, inverse)
