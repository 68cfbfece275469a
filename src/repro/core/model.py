"""The GraphBinMatch model (§III-D, Figure 2).

Architecture, layer for layer as described:

1. token **Embedding** over each node's id sequence; the 2-D per-node
   feature is reduced to 1-D with a PAD-masked **max** over the token axis,
2. L heterogeneous convolution layers — one **GATv2** per flow relation
   (control/data/call) with the edge ``position`` embedded into attention,
   outputs stacked and reduced with element-wise **max**, **LayerNorm**
   after each layer,
3. SimGNN-style **global attention pooling** to a graph embedding,
4. the two graph embeddings are concatenated and passed through two fully
   connected layers (LayerNorm after the first, dropout before the last)
   ending in a **sigmoid** matching score.
"""

from __future__ import annotations

import numpy as np

import repro.nn as nn
from repro.config import ModelConfig
from repro.core.node_features import NodeTokens
from repro.graphs.batch import GraphBatch
from repro.graphs.programl import EXTENDED_RELATIONS, RELATIONS
from repro.nn.functional import concat
from repro.nn.tensor import Tensor
from repro.utils.rng import derive_rng


class GraphBinMatch(nn.Module):
    """Graph Binary Matching Similarity Neural Network."""

    def __init__(self, vocab_size: int, config: ModelConfig):  # noqa: D107
        super().__init__()
        self.config = config
        relations = tuple(config.relations) or RELATIONS
        unknown = [r for r in relations if r not in EXTENDED_RELATIONS]
        if unknown:
            raise ValueError(
                f"unknown graph relations {unknown}; known: {list(EXTENDED_RELATIONS)}"
            )
        rng = derive_rng(config.seed, "model-init")
        self.token_embedding = nn.Embedding(
            vocab_size, config.embed_dim, padding_idx=0, rng=rng
        )
        self.gnn = nn.HeteroGNNStack(
            relations,
            in_dim=config.embed_dim,
            hidden_dim=config.hidden_dim,
            num_layers=config.num_layers,
            heads=config.heads,
            use_positions=config.use_positions,
            aggregate=config.aggregate,
            rng=rng,
        )
        self.pool = nn.GlobalAttentionPool(config.hidden_dim, rng=rng)
        # Graph representation is [attention-mean ; per-dim max] (2H); the
        # max read-out is the vector analog of SimGNN's histogram features:
        # it preserves the node-level variance that the attention mean alone
        # washes out at CPU scale.  The pair head consumes the plain
        # concatenation (4H — the paper's "Transpose & Concat") or, with
        # pair_features="interaction", concat ⊕ |a-b| ⊕ a*b (8H): the extra
        # terms hand the first linear layer the cross-graph comparisons it
        # would otherwise have to synthesize, which at CPU scale shortens
        # the initial BCE plateau by an order of magnitude.
        if config.pair_features not in ("concat", "interaction"):
            raise ValueError(f"unknown pair_features {config.pair_features!r}")
        # Pooled graph embeddings share a large mean component (common
        # instructions dominate every program graph; their raw cosine is
        # ~0.95).  BatchNorm over the graph axis removes it exactly, so the
        # head sees the *differential* signal from step one.
        self.graph_norm = nn.BatchNorm1d(2 * config.hidden_dim)
        head_in = (4 if config.pair_features == "concat" else 8) * config.hidden_dim
        self.fc1 = nn.Linear(head_in, config.hidden_dim, rng=rng)
        self.fc_norm = nn.LayerNorm(config.hidden_dim)
        self.dropout = nn.Dropout(config.dropout, rng=derive_rng(config.seed, "dropout"))
        self.fc2 = nn.Linear(config.hidden_dim, 1, rng=rng)
        # Graphs pushed through the (expensive) encoder, cumulative.  The
        # retrieval benchmarks read this to show the embedding index really
        # does encode each graph once; not part of the checkpoint state.
        self.encoder_graph_count = 0

    # ----------------------------------------------------------- encoding
    def node_features(self, token_ids) -> Tensor:
        """Embed token ids and max-reduce to per-node features ``(N, D)``.

        ``token_ids`` is a dense ``(N, L)`` matrix or a deduplicated
        :class:`~repro.core.node_features.NodeTokens`; with the latter the
        embed/mask/reduce pipeline runs on the unique rows only and fans
        out by (differentiable) gather — numerically identical, since
        every step is row-independent.  Rows are distinct token-id rows,
        so even one query graph shrinks about twentyfold (1335 nodes → 70
        rows on average).

        PAD positions (id 0) are masked to -inf before the max so padding
        never wins the reduction; all-PAD rows fall back to zeros.
        """
        if isinstance(token_ids, NodeTokens):
            ids, inverse = token_ids.unique_ids, token_ids.inverse
        else:
            ids, inverse = token_ids, None
        emb = self.token_embedding(ids)  # (U, L, D)
        mask = (ids != 0).astype(np.float32)[:, :, None]  # (U, L, 1)
        neg = Tensor((1.0 - mask) * -1e9)
        masked = emb * Tensor(mask) + neg
        reduced = masked.max(axis=1)  # (U, D)
        any_token = (ids != 0).any(axis=1).astype(np.float32)[:, None]
        out = reduced * Tensor(any_token)
        return out if inverse is None else out[inverse]

    def encode_graphs(self, batch: GraphBatch, token_ids: np.ndarray) -> Tensor:
        """Full encoder: token ids → graph-level embeddings ``(G, 2H)``.

        The read-out concatenates the SimGNN attention pooling (weighted
        mean) with a per-dimension max over nodes.
        """
        from repro.nn.functional import segment_max

        self.encoder_graph_count += batch.num_graphs
        x = self.node_features(token_ids)
        h = self.gnn(x, plans=batch.conv_plans())
        gi = batch.graph_index()
        att = self.pool(h, gi, batch.num_graphs)
        mx = segment_max(h, gi, batch.num_graphs)
        return self.graph_norm(concat([att, mx], axis=1))

    # ------------------------------------------------------------ scoring
    def score_from_embeddings(self, graph_emb: Tensor) -> Tensor:
        """Pairwise scores from interleaved (left0, right0, left1, ...) rows."""
        g = graph_emb.shape[0]
        if g % 2 != 0:
            raise ValueError("expected an even number of graphs (pairs)")
        pairs = graph_emb.reshape(g // 2, 4 * self.config.hidden_dim)
        if self.config.pair_features == "interaction":
            left = graph_emb[np.arange(0, g, 2)]
            right = graph_emb[np.arange(1, g, 2)]
            pairs = concat([pairs, (left - right).abs(), left * right], axis=1)
        hidden = self.fc_norm(self.fc1(pairs)).leaky_relu()
        hidden = self.dropout(hidden)
        return self.fc2(hidden).sigmoid().reshape(g // 2)

    def forward(self, batch: GraphBatch, token_ids: np.ndarray) -> Tensor:
        """Scores for a batch holding interleaved pair graphs."""
        return self.score_from_embeddings(self.encode_graphs(batch, token_ids))
