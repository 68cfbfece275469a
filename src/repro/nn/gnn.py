"""Graph neural network layers: GATv2 convolution and heterogeneous wrapper.

``GATv2Conv`` follows Brody, Alon & Yahav, *How Attentive are Graph Attention
Networks?* (ICLR 2022) — the convolution GraphBinMatch uses.  ``HeteroConv``
mirrors ``torch_geometric.nn.HeteroConv``: one convolution per edge type
(control / data / call flow), with the per-relation outputs stacked and
reduced by element-wise max, exactly as in the paper's Figure 2.

All message passing is vectorized: per-edge work is fancy indexing over node
arrays, per-node reductions are the sorted segment operations of
:mod:`repro.nn.segments`; no Python loop runs over edges.  Callers may pass
prebuilt :class:`~repro.nn.segments.ConvPlan` objects (one per relation) so
the self-loop augmentation and destination sort are paid once per batch
rather than once per layer per step.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

import numpy as np

from repro.nn import init
from repro.nn.functional import elementwise_max, segment_softmax, segment_sum
from repro.nn.layers import LayerNorm
from repro.nn.module import Module, ModuleDict, Parameter
from repro.nn.segments import ConvPlan, build_conv_plan
from repro.nn.tensor import Tensor

EdgeIndex = np.ndarray  # shape (2, E): row 0 = source node ids, row 1 = dest


class GATv2Conv(Module):
    """Single-relation GATv2 convolution.

    Parameters
    ----------
    in_dim, out_dim:
        Node feature dimensions.  With ``heads > 1`` the output is the
        concatenation of per-head results, so ``out_dim`` must be divisible
        by ``heads``.
    heads:
        Number of attention heads.
    edge_dim:
        If not ``None``, edges carry an integer *position* feature (the
        ProGraML operand position); it is embedded and added to the
        attention input, as GraphBinMatch does.
    max_positions:
        Size of the position-embedding table (positions clip into range).
    add_self_loops:
        Append a self edge to every node before attention (PyG default),
        which keeps isolated nodes alive across layers.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        heads: int = 1,
        edge_dim: Optional[int] = None,
        max_positions: int = 16,
        add_self_loops: bool = True,
        negative_slope: float = 0.2,
        rng: Optional[np.random.Generator] = None,
    ):  # noqa: D107
        super().__init__()
        if out_dim % heads != 0:
            raise ValueError(f"out_dim {out_dim} not divisible by heads {heads}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.heads = heads
        self.head_dim = out_dim // heads
        self.negative_slope = negative_slope
        self.add_self_loops = add_self_loops
        self.edge_dim = edge_dim
        self.max_positions = max_positions

        self.w_src = Parameter(init.glorot_uniform(rng, in_dim, out_dim), name="w_src")
        self.w_dst = Parameter(init.glorot_uniform(rng, in_dim, out_dim), name="w_dst")
        self.att = Parameter(
            init.glorot_uniform(rng, self.head_dim, heads, shape=(heads, self.head_dim)),
            name="att",
        )
        self.bias = Parameter(np.zeros(out_dim, dtype=np.float32), name="bias")
        if edge_dim is not None:
            self.pos_table = Parameter(
                init.normal(rng, (max_positions, out_dim), std=0.1), name="pos_table"
            )
        else:
            self.pos_table = None

    def forward(
        self,
        x: Tensor,
        edge_index: Optional[EdgeIndex] = None,
        edge_pos: Optional[np.ndarray] = None,
        plan: Optional[ConvPlan] = None,
    ) -> Tensor:
        """Run one round of attention message passing.

        ``x`` is ``(N, in_dim)``; ``edge_index`` is ``(2, E)`` int; the
        result is ``(N, out_dim)``.  When ``plan`` is given it supersedes
        ``edge_index``/``edge_pos`` and must have been built for the same
        node count and self-loop setting.
        """
        n = x.shape[0]
        if plan is None:
            plan = build_conv_plan(edge_index, edge_pos, n, self.add_self_loops)
        elif plan.num_nodes != n:
            raise ValueError(f"plan built for {plan.num_nodes} nodes, batch has {n}")
        elif plan.add_self_loops != self.add_self_loops:
            raise ValueError(
                f"plan built with add_self_loops={plan.add_self_loops}, layer "
                f"expects {self.add_self_loops}: self edges would be "
                f"{'double-counted' if plan.add_self_loops else 'dropped'}"
            )
        src, dst = plan.src, plan.dst

        x_src = x @ self.w_src  # (N, H*D)
        x_dst = x @ self.w_dst

        gathered_src = x_src[src]  # (E, H*D), reused as the message payload
        e_feat = gathered_src + x_dst[dst]
        if self.pos_table is not None and plan.pos is not None:
            pos = np.clip(plan.pos, 0, self.max_positions - 1)
            from repro.nn.functional import embedding_lookup

            e_feat = e_feat + embedding_lookup(self.pos_table, pos)

        e_act = e_feat.leaky_relu(self.negative_slope)
        e_act = e_act.reshape(-1, self.heads, self.head_dim)
        scores = (e_act * self.att).sum(axis=-1)  # (E, H)

        alpha = segment_softmax(scores, plan.dst_index, n)  # (E, H)
        messages = gathered_src.reshape(-1, self.heads, self.head_dim)
        weighted = messages * alpha.reshape(-1, self.heads, 1)
        out = segment_sum(weighted, plan.dst_index, n)  # (N, H, D)
        return out.reshape(n, self.out_dim) + self.bias


class HeteroConv(Module):
    """Per-edge-type convolutions over a shared node space, reduced by max.

    GraphBinMatch's graphs have one node index space (instructions, variables
    and constants share ids, distinguished by a node-type feature) and three
    edge relations.  Each relation gets its own :class:`GATv2Conv`; outputs
    are stacked and reduced with element-wise maximum ("Stack & Max" in the
    paper's Figure 2), followed by LayerNorm applied by the caller.

    ``aggregate`` may be ``"max"`` (paper), ``"sum"`` or ``"mean"`` — the
    alternatives exist for the ablation bench.
    """

    def __init__(
        self,
        convs: Mapping[str, GATv2Conv],
        aggregate: str = "max",
    ):  # noqa: D107
        super().__init__()
        if aggregate not in ("max", "sum", "mean"):
            raise ValueError(f"unknown aggregate {aggregate!r}")
        self.convs = ModuleDict(dict(convs))
        self.aggregate = aggregate

    def forward(
        self,
        x: Tensor,
        edges: Optional[Mapping[str, EdgeIndex]] = None,
        edge_pos: Optional[Mapping[str, np.ndarray]] = None,
        plans: Optional[Mapping[str, ConvPlan]] = None,
    ) -> Tensor:
        """Apply each relation's conv and combine the results."""
        outs = []
        for rel, conv in self.convs.items():
            if plans is not None and rel in plans:
                outs.append(conv(x, plan=plans[rel]))
                continue
            e = edges.get(rel) if edges is not None else None
            if e is None:
                e = np.zeros((2, 0), dtype=np.int64)
            pos = edge_pos.get(rel) if edge_pos is not None else None
            outs.append(conv(x, e, pos))
        if len(outs) == 1:
            return outs[0]
        if self.aggregate == "max":
            return elementwise_max(outs)
        total = outs[0]
        for o in outs[1:]:
            total = total + o
        if self.aggregate == "mean":
            total = total * (1.0 / len(outs))
        return total


class HeteroGNNStack(Module):
    """The paper's graph-convolution module: L hetero layers with LayerNorm.

    "This layer includes three separated GATv2Conv layers to model each one
    of the relationships … After each GATv2Conv, we include additional
    LayerNorm to stabilize training" (§III-D.1).
    """

    def __init__(
        self,
        relations: Sequence[str],
        in_dim: int,
        hidden_dim: int,
        num_layers: int,
        heads: int = 1,
        use_positions: bool = True,
        aggregate: str = "max",
        rng: Optional[np.random.Generator] = None,
    ):  # noqa: D107
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        from repro.nn.module import ModuleList

        self.layers = ModuleList()
        self.norms = ModuleList()
        dims = [in_dim] + [hidden_dim] * num_layers
        for layer_idx in range(num_layers):
            convs = {
                rel: GATv2Conv(
                    dims[layer_idx],
                    dims[layer_idx + 1],
                    heads=heads,
                    edge_dim=1 if use_positions else None,
                    rng=rng,
                )
                for rel in relations
            }
            self.layers.append(HeteroConv(convs, aggregate=aggregate))
            self.norms.append(LayerNorm(dims[layer_idx + 1]))

    def forward(
        self,
        x: Tensor,
        edges: Optional[Mapping[str, EdgeIndex]] = None,
        edge_pos: Optional[Mapping[str, np.ndarray]] = None,
        plans: Optional[Mapping[str, ConvPlan]] = None,
    ) -> Tensor:
        """Run all hetero layers with LeakyReLU + LayerNorm between them.

        All layers share the same edge structure, so when ``plans`` is not
        supplied it is built once here and reused by every layer.
        """
        if plans is None and edges is not None:
            n = x.shape[0]
            plans = {
                rel: build_conv_plan(
                    edges.get(rel),
                    edge_pos.get(rel) if edge_pos is not None else None,
                    n,
                )
                for rel in edges
            }
        h = x
        for conv, norm in zip(self.layers, self.norms):
            h = conv(h, edges, edge_pos, plans=plans)
            h = norm(h.leaky_relu())
        return h
