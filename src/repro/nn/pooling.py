"""Graph-level read-outs: the SimGNN-style global attention pooling.

GraphBinMatch pools node embeddings into a graph embedding exactly as SimGNN
(Bai et al., WSDM 2019) does: a global context vector ``c`` is the mean node
embedding passed through a learned non-linear transform; each node's
attention weight is ``sigmoid(h_i · c)``; the graph embedding is the
attention-weighted sum of node embeddings.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn import init
from repro.nn.functional import segment_mean, segment_sum
from repro.nn.module import Module, Parameter
from repro.nn.segments import as_segment_index
from repro.nn.tensor import Tensor


class GlobalAttentionPool(Module):
    """SimGNN attention read-out over a (possibly batched) node set.

    ``graph_ids`` assigns each node to a graph in the batch, so a single
    forward pools every graph at once with two segment reductions.
    """

    def __init__(self, dim: int, rng: Optional[np.random.Generator] = None):  # noqa: D107
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.dim = dim
        self.w_context = Parameter(init.glorot_uniform(rng, dim, dim), name="w_context")

    def forward(
        self,
        x: Tensor,
        graph_ids: Optional[np.ndarray] = None,
        num_graphs: int = 1,
    ) -> Tensor:
        """Pool ``(N, D)`` node embeddings into ``(num_graphs, D)``.

        With ``graph_ids=None`` all nodes belong to one graph; a prebuilt
        :class:`~repro.nn.segments.SegmentIndex` is accepted too.  The
        attention-weighted sum is normalized by the total attention mass
        (a weighted mean): the raw SimGNN sum scales linearly with graph
        size, which at CPU scale drowns the content signal in a size
        factor (empirically, all pooled embeddings became parallel).
        """
        n = x.shape[0]
        if graph_ids is None:
            graph_ids = np.zeros(n, dtype=np.int64)
            num_graphs = 1
        si = as_segment_index(graph_ids, num_graphs)
        mean_h = segment_mean(x, si, num_graphs)  # (G, D)
        context = (mean_h @ self.w_context).tanh()  # (G, D)
        att_logits = (x * context[si.ids]).sum(axis=-1, keepdims=True)  # (N, 1)
        att = att_logits.sigmoid()
        weighted = segment_sum(x * att, si, num_graphs)  # (G, D)
        mass = segment_sum(att, si, num_graphs) + 1e-8  # (G, 1)
        return weighted / mass
