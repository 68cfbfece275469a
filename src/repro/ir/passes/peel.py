"""Loop peeling: clone the first iteration of natural loops.

The O3 pipeline's "aggressive control-flow tuning".  Runs on pre-mem2reg IR
(loop state still lives in memory), so no SSA values cross the peeled
boundary and the transform reduces to block cloning plus branch rewiring.

Loop discovery is the textbook construction: dominators from the shared
:class:`~repro.ir.analysis.cfg.DominatorTree`, back edges (tail → head
where head dominates tail), natural loop bodies by backward reachability
from the tail.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.ir.module import BasicBlock, Function, Module, Value
from repro.ir.passes.common import clone_blocks


def find_natural_loops(fn: Function) -> List[Dict]:
    """All natural loops as dicts {header, body (set incl. header), latches}."""
    # Imported here: the analysis package loads five modules that only O3
    # builds need, and every process imports the pass pipeline.
    from repro.ir.analysis.cfg import DominatorTree

    dom = DominatorTree(fn)
    preds = fn.predecessors()
    loops: Dict[BasicBlock, Dict] = {}
    for blk in fn.blocks:
        if not dom.reachable(blk):
            continue
        for succ in blk.successors():
            if dom.dominates(succ, blk):  # back edge blk → succ
                header = succ
                body: Set[BasicBlock] = {header, blk}
                stack = [blk]
                while stack:
                    node = stack.pop()
                    if node is header:
                        continue
                    for p in preds[node]:
                        if p not in body:
                            body.add(p)
                            stack.append(p)
                entry = loops.setdefault(
                    header, {"header": header, "body": set(), "latches": []}
                )
                entry["body"] |= body
                entry["latches"].append(blk)
    return list(loops.values())


def peel_loops(module: Module, max_loop_size: int = 60) -> int:
    """Peel one iteration off each (small, phi-free) natural loop."""
    peeled = 0
    for fn in module.defined_functions():
        peeled += _peel_function(fn, max_loop_size)
    return peeled


def _peel_function(fn: Function, max_loop_size: int) -> int:
    count = 0
    # Snapshot: peeling adds blocks; we only peel the loops found up front,
    # and skip nested re-discovery within one pass invocation.
    for loop in find_natural_loops(fn):
        header: BasicBlock = loop["header"]
        body: Set[BasicBlock] = loop["body"]
        if sum(len(b.instructions) for b in body) > max_loop_size:
            continue
        # Pre-mem2reg restriction: header must be phi-free (short-circuit
        # phis inside the body clone safely); values defined in the loop
        # must not be used outside it.
        if header.phis():
            continue
        inside_ids = {id(i) for b in body for i in b.instructions}
        escapes = False
        for blk in fn.blocks:
            if blk in body:
                continue
            for instr in blk.instructions:
                if any(id(op) in inside_ids for op in instr.operands):
                    escapes = True
                    break
            if escapes:
                break
        if escapes:
            continue

        preds = fn.predecessors()
        outside_preds = [p for p in preds[header] if p not in body]
        if len(outside_preds) != 1:
            continue
        preheader = outside_preds[0]

        # Clone the whole loop.
        ordered_body = [b for b in fn.blocks if b in body]
        value_map: Dict[int, Value] = {}
        block_map, _ = clone_blocks(fn, ordered_body, value_map, f"peel{count}")

        # Cloned latches jump to the ORIGINAL header (second iteration on).
        for latch in loop["latches"]:
            clone = block_map[latch]
            term = clone.terminator
            term.blocks = [
                header if b is block_map.get(header) else b for b in term.blocks
            ]

        # Preheader enters the peeled copy instead of the loop.
        pre_term = preheader.terminator
        pre_term.blocks = [
            block_map[header] if b is header else b for b in pre_term.blocks
        ]
        # Exit blocks gain a new predecessor (the cloned header/exits); any
        # phis there need an incoming entry per cloned predecessor.
        for orig in ordered_body:
            clone = block_map[orig]
            for succ in orig.successors():
                if succ in body:
                    continue
                for phi in succ.phis():
                    for v, b in list(zip(phi.operands, phi.blocks)):
                        if b is orig:
                            phi.operands.append(value_map.get(id(v), v))
                            phi.blocks.append(clone)
        count += 1
    return count
