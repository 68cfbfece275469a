"""Generic iterative dataflow framework plus the two classic instances.

The solver is the textbook worklist algorithm over a join semilattice of
frozen fact sets: each analysis declares a direction, per-block GEN/KILL
behaviour via :meth:`DataflowAnalysis.transfer`, and (optionally) a
per-edge refinement — which is how :class:`Liveness` attributes phi
operands to the incoming edge instead of the phi's own block, the standard
SSA treatment.

Facts are hashable tokens chosen by each analysis (instruction ``uid``
ints here), so fixpoints are set-equality tests and results serialize
deterministically.  Iteration order is reverse postorder for forward
problems and postorder for backward ones, which keeps the pass count
near-minimal on reducible CFGs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterable, List, Tuple

from repro.ir.analysis.cfg import postorder, reverse_postorder
from repro.ir.module import BasicBlock, Function, Instruction
from repro.ir.types import VOID

Fact = Hashable
FactSet = FrozenSet[Fact]

EMPTY: FactSet = frozenset()


@dataclass
class DataflowResult:
    """Fixpoint solution: per-block IN/OUT sets plus iteration accounting."""

    block_in: Dict[int, FactSet] = field(default_factory=dict)
    block_out: Dict[int, FactSet] = field(default_factory=dict)
    iterations: int = 0

    def in_of(self, block: BasicBlock) -> FactSet:
        """Facts holding at block entry (empty for unreachable blocks)."""
        return self.block_in.get(id(block), EMPTY)

    def out_of(self, block: BasicBlock) -> FactSet:
        """Facts holding at block exit (empty for unreachable blocks)."""
        return self.block_out.get(id(block), EMPTY)


class DataflowAnalysis:
    """Base class: a monotone may-analysis over sets (meet = union)."""

    #: ``"forward"`` propagates entry→exit, ``"backward"`` exit→entry.
    direction = "forward"

    def transfer(self, block: BasicBlock, facts: FactSet) -> FactSet:
        """One block's GEN/KILL applied to the incoming fact set."""
        raise NotImplementedError

    def edge_facts(self, src: BasicBlock, dst: BasicBlock) -> FactSet:
        """Extra facts generated on the ``src``→``dst`` CFG edge."""
        return EMPTY


def solve(analysis: DataflowAnalysis, fn: Function) -> DataflowResult:
    """Iterate ``analysis`` over ``fn``'s reachable blocks to a fixpoint."""
    forward = analysis.direction == "forward"
    order = reverse_postorder(fn) if forward else postorder(fn)
    if not order:
        return DataflowResult()
    preds = fn.predecessors()
    result = DataflowResult()
    for block in order:
        result.block_in[id(block)] = EMPTY
        result.block_out[id(block)] = EMPTY
    reachable = set(result.block_in)

    changed = True
    while changed:
        changed = False
        result.iterations += 1
        for block in order:
            if forward:
                sources = [p for p in preds[block] if id(p) in reachable]
                joined = frozenset().union(
                    *(
                        result.block_out[id(p)] | analysis.edge_facts(p, block)
                        for p in sources
                    )
                ) if sources else EMPTY
                out = analysis.transfer(block, joined)
                if joined != result.block_in[id(block)] or out != result.block_out[id(block)]:
                    result.block_in[id(block)] = joined
                    result.block_out[id(block)] = out
                    changed = True
            else:
                succs = [s for s in block.successors() if id(s) in reachable]
                joined = frozenset().union(
                    *(
                        result.block_in[id(s)] | analysis.edge_facts(block, s)
                        for s in succs
                    )
                ) if succs else EMPTY
                inset = analysis.transfer(block, joined)
                if joined != result.block_out[id(block)] or inset != result.block_in[id(block)]:
                    result.block_out[id(block)] = joined
                    result.block_in[id(block)] = inset
                    changed = True
    return result


def is_memory_def(instr: Instruction) -> bool:
    """True for stores that define a statically-known alloca slot."""
    return (
        instr.opcode == "store"
        and len(instr.operands) == 2
        and isinstance(instr.operands[1], Instruction)
        and instr.operands[1].opcode == "alloca"
    )


class ReachingDefinitions(DataflowAnalysis):
    """Which definitions may reach each program point (forward, may).

    Definitions are value-producing instructions (identified by ``uid``)
    plus stores into alloca slots.  SSA values are defined exactly once,
    so they have empty kill sets; a store kills every *other* store to
    the same alloca — the classic GEN/KILL structure, which is what makes
    this a genuine fixpoint rather than plain reachability.
    """

    def __init__(self, fn: Function):  # noqa: D107
        self.function = fn
        # store uid -> alloca uid, and alloca uid -> all store uids to it.
        self._slot_of: Dict[int, int] = {}
        self._stores_of: Dict[int, List[int]] = {}
        for instr in fn.instructions():
            if is_memory_def(instr):
                slot = instr.operands[1].uid
                self._slot_of[instr.uid] = slot
                self._stores_of.setdefault(slot, []).append(instr.uid)

    def transfer(self, block: BasicBlock, facts: FactSet) -> FactSet:
        live = set(facts)
        for instr in block.instructions:
            if is_memory_def(instr):
                slot = self._slot_of[instr.uid]
                for other in self._stores_of[slot]:
                    live.discard(other)
                live.add(instr.uid)
            elif instr.type != VOID:
                live.add(instr.uid)
        return frozenset(live)


class Liveness(DataflowAnalysis):
    """Which values are live (may be used later) at each point (backward).

    Facts are the ``uid``s of instructions and the *argument index*
    tokens ``("arg", i)`` for function parameters.  Phi operands are
    attributed to the incoming edge — the value is live out of the
    predecessor, not live into the phi's own block — via
    :meth:`edge_facts`.
    """

    direction = "backward"

    def __init__(self, fn: Function):  # noqa: D107
        self.function = fn
        self._arg_token = {id(a): ("arg", a.index) for a in fn.args}

    def _token(self, value) -> Fact:
        if isinstance(value, Instruction):
            return value.uid
        return self._arg_token.get(id(value))

    def uses_of(self, instr: Instruction) -> Iterable[Fact]:
        """Fact tokens for an instruction's non-constant operands."""
        for op in instr.operands:
            tok = self._token(op)
            if tok is not None:
                yield tok

    def transfer(self, block: BasicBlock, facts: FactSet) -> FactSet:
        live = set(facts)
        for instr in reversed(block.instructions):
            if instr.type != VOID:
                live.discard(instr.uid)
            if instr.opcode == "phi":
                continue  # uses belong to the incoming edges
            for tok in self.uses_of(instr):
                live.add(tok)
        return frozenset(live)

    def edge_facts(self, src: BasicBlock, dst: BasicBlock) -> FactSet:
        facts = set()
        for phi in dst.phis():
            for op, blk in zip(phi.operands, phi.blocks):
                if blk is src:
                    tok = self._token(op)
                    if tok is not None:
                        facts.add(tok)
        return frozenset(facts)

    def live_in(self, result: DataflowResult, block: BasicBlock) -> Tuple[Fact, ...]:
        """Deterministically ordered live-in tokens for reporting."""
        return tuple(sorted(result.in_of(block), key=repr))

    def live_out(self, result: DataflowResult, block: BasicBlock) -> Tuple[Fact, ...]:
        """Deterministically ordered live-out tokens for reporting."""
        return tuple(sorted(result.out_of(block), key=repr))


def reaching_definitions(fn: Function) -> Tuple[ReachingDefinitions, DataflowResult]:
    """Convenience: construct and solve reaching definitions for ``fn``."""
    analysis = ReachingDefinitions(fn)
    return analysis, solve(analysis, fn)


def liveness(fn: Function) -> Tuple[Liveness, DataflowResult]:
    """Convenience: construct and solve liveness for ``fn``."""
    analysis = Liveness(fn)
    return analysis, solve(analysis, fn)
