"""IR module → heterogeneous program graph (the ProGraML substitute).

Follows Cummins et al. (2020): three node types — **instruction**,
**variable**, **constant** — and three edge relations — **control** (block
order and branches), **data** (def→use through variable/constant nodes,
with operand ``position``), and **call** (call site → callee entry, returns
→ call site).  Every node carries two feature strings:

* ``text`` — the opcode / type only (the ProGraML default feature),
* ``full_text`` — the complete printed instruction (the richer feature
  GraphBinMatch found superior; Table VIII ablates the two).

With ``build_graph(..., dataflow=True)`` two *analysis-derived* relations
join the three structural ones — **dataflow** (cross-block def→use chains)
and **callsummary** (call site → interprocedural callee summary, a fourth
node type) — computed by :mod:`repro.ir.analysis`; see ``docs/analysis.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.ir.module import BasicBlock, Constant, Instruction, Module, Value
from repro.ir.printer import Namer, instruction_text
from repro.ir.types import VoidType

CONTROL = "control"
DATA = "data"
CALL = "call"
#: The paper's three structural relations — what every graph carries.
RELATIONS = (CONTROL, DATA, CALL)

#: Analysis-derived relations, emitted only with ``build_graph(dataflow=True)``:
#: ``dataflow`` edges connect a definition directly to each *cross-block* use
#: (the def→use chains that survive register renaming and block reordering);
#: ``callsummary`` edges connect every call site to its callee's
#: interprocedural summary node (mod/ref/purity — see
#: :mod:`repro.ir.analysis.callgraph`).
DATAFLOW = "dataflow"
CALLSUMMARY = "callsummary"
EXTENDED_RELATIONS = RELATIONS + (DATAFLOW, CALLSUMMARY)

NODE_INSTRUCTION = 0
NODE_VARIABLE = 1
NODE_CONSTANT = 2
#: Per-function summary nodes (one per called function, ``dataflow`` mode).
NODE_SUMMARY = 3


@dataclass
class ProgramGraph:
    """A heterogeneous program graph.

    ``edges[rel]`` is an int64 array of shape ``(2, E)`` (source, dest);
    ``positions[rel]`` the matching operand-position feature of shape
    ``(E,)``.
    """

    name: str
    node_texts: List[str] = field(default_factory=list)
    node_full_texts: List[str] = field(default_factory=list)
    node_types: List[int] = field(default_factory=list)
    edges: Dict[str, np.ndarray] = field(default_factory=dict)
    positions: Dict[str, np.ndarray] = field(default_factory=dict)
    source_language: str = ""

    @property
    def num_nodes(self) -> int:
        """Node count."""
        return len(self.node_texts)

    @property
    def num_edges(self) -> int:
        """Total edge count across relations."""
        return sum(e.shape[1] for e in self.edges.values())

    def edge_count(self, rel: str) -> int:
        """Edges in one relation."""
        return self.edges[rel].shape[1] if rel in self.edges else 0


class _GraphBuilder:
    """Node lists plus one flat ``[src, dst, pos, src, dst, pos, ...]`` int
    list per relation; :meth:`finish` turns each into one array."""

    def __init__(self, name: str, relations: Tuple[str, ...] = RELATIONS):  # noqa: D107
        self.graph = ProgramGraph(name)
        self.edges: Dict[str, List[int]] = {r: [] for r in relations}
        self._const_nodes: Dict[Tuple[int, str], int] = {}

    def add_node(self, text: str, full_text: str, node_type: int) -> int:
        g = self.graph
        g.node_texts.append(text)
        g.node_full_texts.append(full_text)
        g.node_types.append(node_type)
        return len(g.node_texts) - 1

    def const_node(self, c: Constant) -> int:
        text = c.type.text
        key = (c.value, text)
        idx = self._const_nodes.get(key)
        if idx is None:
            idx = self._const_nodes[key] = self.add_node(
                text, f"{text} {c.value}", NODE_CONSTANT
            )
        return idx

    def finish(self) -> ProgramGraph:
        g = self.graph
        for rel, flat in self.edges.items():
            if flat:
                arr = np.array(flat, dtype=np.int64).reshape(-1, 3).T
                g.edges[rel] = arr[:2]
                g.positions[rel] = arr[2]
            else:
                g.edges[rel] = np.zeros((2, 0), dtype=np.int64)
                g.positions[rel] = np.zeros(0, dtype=np.int64)
        return g


def build_graph(
    module: Module, name: Optional[str] = None, *, dataflow: bool = False
) -> ProgramGraph:
    """Construct the heterogeneous graph for an IR module.

    With ``dataflow=True`` the graph additionally carries the
    analysis-derived ``dataflow`` and ``callsummary`` relations (plus
    their summary nodes).  The three structural relations are built
    identically either way — a ``dataflow`` graph restricted to
    :data:`RELATIONS` is byte-for-byte the clean graph.

    Node maps are keyed by the IR objects themselves: instructions and
    arguments hash by identity, so lookups are exact.
    """
    b = _GraphBuilder(
        name or module.name, EXTENDED_RELATIONS if dataflow else RELATIONS
    )
    g = b.graph
    g.source_language = module.source_language
    texts, full_texts, node_types = g.node_texts, g.node_full_texts, g.node_types

    instr_node: Dict[Instruction, int] = {}
    var_node: Dict[Value, int] = {}
    fn_entry_node: Dict[str, int] = {}
    fn_ret_nodes: Dict[str, List[int]] = {}
    # (block, its instructions' node ids) in program order, for pass 2.
    block_nodes: List[Tuple[BasicBlock, List[int]]] = []

    # --- pass 1: nodes ---------------------------------------------------
    # Each instruction is a node; a value-producing one is followed
    # directly by its variable node (index + 1).
    for fn in module.functions:
        if fn.is_declaration:
            # one node stands for the external function
            idx = b.add_node(
                "external", f"declare {fn.return_type} @{fn.name}", NODE_INSTRUCTION
            )
            fn_entry_node[fn.name] = idx
            continue
        namer = Namer()
        namer.assign_all(fn)
        for arg in fn.args:
            tt = arg.type.text
            var_node[arg] = b.add_node(tt, f"{tt} %{arg.name}", NODE_VARIABLE)
        rets: List[int] = []
        for blk in fn.blocks:
            ids: List[int] = []
            for instr in blk.instructions:
                idx = len(texts)
                ids.append(idx)
                instr_node[instr] = idx
                texts.append(instr.opcode)
                full_texts.append(instruction_text(instr, namer))
                node_types.append(NODE_INSTRUCTION)
                if not isinstance(instr.type, VoidType):
                    var_node[instr] = idx + 1
                    tt = instr.type.text
                    texts.append(tt)
                    full_texts.append(f"{tt} {namer.name(instr)}")
                    node_types.append(NODE_VARIABLE)
                if instr.opcode == "ret":
                    rets.append(idx)
            block_nodes.append((blk, ids))
        fn_entry_node[fn.name] = instr_node[fn.entry.instructions[0]]
        fn_ret_nodes[fn.name] = rets

    # --- pass 2: edges ---------------------------------------------------
    control, data, call = b.edges[CONTROL], b.edges[DATA], b.edges[CALL]
    const_node = b.const_node
    for blk, ids in block_nodes:
        # control: straight line
        for a, nxt in zip(ids, ids[1:]):
            control += (a, nxt, 0)
        # control: branch targets
        term = blk.terminator
        if term is not None:
            for k, succ in enumerate(term.blocks):
                control += (ids[-1], instr_node[succ.instructions[0]], k)
        for instr, idx in zip(blk.instructions, ids):
            # data: producer → its variable node
            if instr in var_node:
                data += (idx, idx + 1, 0)
            # data: operands → this instruction
            for pos, op in enumerate(instr.operands):
                if isinstance(op, Constant):
                    data += (const_node(op), idx, pos)
                else:
                    src = var_node.get(op)
                    if src is not None:
                        data += (src, idx, pos)
            # call edges
            if instr.opcode == "call":
                callee = instr.extra["callee"]
                if callee in fn_entry_node:
                    call += (idx, fn_entry_node[callee], 0)
                    for r in fn_ret_nodes.get(callee, ()):
                        call += (r, idx, 1)

    if dataflow:
        _add_analysis_edges(b, module, instr_node)
    return b.finish()


def _add_analysis_edges(
    b: _GraphBuilder, module: Module, instr_node: Dict[Instruction, int]
) -> None:
    """Emit the ``dataflow`` and ``callsummary`` relations (pass 3).

    ``dataflow`` edges are the cross-block def→use pairs of
    :meth:`repro.ir.analysis.defuse.DefUseChains.cross_block_pairs` —
    exactly the value flow the same-block operand (``data``) edges do not
    already encode, deduplicated per (def, use).  ``callsummary`` edges
    run from each call site to a per-callee summary node whose feature
    string renders the interprocedural mod/ref/purity summary; summary
    nodes are created lazily at the first call site, so node ids stay a
    deterministic function of module traversal order.
    """
    from repro.ir.analysis.callgraph import CallGraph
    from repro.ir.analysis.defuse import DefUseChains

    summaries = CallGraph(module).summaries()
    summary_node: Dict[str, int] = {}
    dataflow, callsummary = b.edges[DATAFLOW], b.edges[CALLSUMMARY]
    for fn in module.defined_functions():
        chains = DefUseChains.build(fn)
        for def_instr, use_instr, pos in chains.cross_block_pairs():
            dataflow += (instr_node[def_instr], instr_node[use_instr], pos)
        for instr in fn.instructions():
            if instr.opcode != "call":
                continue
            callee = instr.extra.get("callee", "")
            if not callee:
                continue
            if callee not in summary_node:
                summ = summaries.get(callee)
                text = (
                    summ.describe()
                    if summ is not None
                    else f"summary @{callee} unknown calls=0"
                )
                summary_node[callee] = b.add_node("summary", text, NODE_SUMMARY)
            callsummary += (instr_node[instr], summary_node[callee], 0)
