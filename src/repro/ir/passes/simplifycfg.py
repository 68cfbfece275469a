"""CFG simplification: unreachable removal, constant branches, block merging."""

from __future__ import annotations

from repro.ir.module import Constant, Function, Instruction, Module
from repro.ir.passes.common import phi_incoming_replace


def simplify_cfg(module: Module) -> int:
    """Run all CFG cleanups to fixpoint; returns a change count."""
    total = 0
    for fn in module.defined_functions():
        changed = True
        while changed:
            changed = False
            changed |= _fold_constant_branches(fn) > 0
            changed |= _remove_unreachable(fn) > 0
            changed |= _merge_straight_line(fn) > 0
            total += int(changed)
    return total


def _fold_constant_branches(fn: Function) -> int:
    """condbr on a constant → unconditional br (dead edge drops from phis)."""
    count = 0
    for blk in fn.blocks:
        term = blk.terminator
        if term is None or term.opcode != "condbr":
            continue
        cond = term.operands[0]
        if not isinstance(cond, Constant):
            continue
        taken = term.blocks[0] if cond.value else term.blocks[1]
        dropped = term.blocks[1] if cond.value else term.blocks[0]
        blk.instructions[-1] = Instruction("br", [], blocks=[taken])
        blk.instructions[-1].parent = blk
        if dropped is not taken:
            phi_incoming_replace(dropped, blk, None)
        count += 1
    return count


def _remove_unreachable(fn: Function) -> int:
    """Delete blocks not reachable from the entry; fix phis of survivors."""
    reachable = fn.reachable_blocks()
    doomed = [b for b in fn.blocks if b not in reachable]
    if not doomed:
        return 0
    doomed_set = set(doomed)
    for blk in fn.blocks:
        if blk in doomed_set:
            continue
        for phi in blk.phis():
            keep = [
                (v, b)
                for v, b in zip(phi.operands, phi.blocks)
                if b not in doomed_set
            ]
            phi.operands = [v for v, _ in keep]
            phi.blocks = [b for _, b in keep]
    fn.blocks = [b for b in fn.blocks if b not in doomed_set]
    return len(doomed)


def _merge_straight_line(fn: Function) -> int:
    """Merge B → C when B ends ``br C``, C has only predecessor B, no phis."""
    preds = fn.predecessors()
    merged = 0
    for blk in list(fn.blocks):
        if blk not in set(fn.blocks):
            continue
        term = blk.terminator
        if term is None or term.opcode != "br":
            continue
        succ = term.blocks[0]
        if succ is blk or succ not in preds:
            continue
        if len(preds[succ]) != 1 or succ.phis():
            continue
        if succ is fn.entry:
            continue
        # splice succ's instructions into blk
        blk.instructions.pop()  # the br
        for instr in succ.instructions:
            instr.parent = blk
            blk.instructions.append(instr)
        # successors of succ now see blk as predecessor
        for nxt in succ.successors():
            phi_incoming_replace(nxt, succ, blk)
        fn.blocks.remove(succ)
        preds = fn.predecessors()
        merged += 1
    return merged
