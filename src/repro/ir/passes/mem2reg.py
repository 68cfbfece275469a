"""mem2reg: promote scalar stack slots to SSA registers.

Implements the lazy-phi SSA construction of Braun et al. (CC 2013) on a
complete CFG: per-block last-store tracking, recursive start-of-block value
lookup with placeholder phis to break loop cycles, and trivial-phi removal.

Promotable allocas are scalar (no element count) and used only as the
direct pointer of loads and stores — exactly LLVM's criterion.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ir.module import BasicBlock, Constant, Function, Instruction, Module, Value
from repro.ir.passes.common import erase_instructions, replace_all_uses

_NO_STORE = object()


def _promotable_allocas(fn: Function) -> List[Instruction]:
    """Scalar allocas whose only uses are load/store-pointer positions."""
    allocas = [
        i for i in fn.instructions() if i.opcode == "alloca" and not i.operands
    ]
    bad = set()
    for blk in fn.blocks:
        for instr in blk.instructions:
            for pos, op in enumerate(instr.operands):
                if not (isinstance(op, Instruction) and op.opcode == "alloca"):
                    continue
                ok = (instr.opcode == "load" and pos == 0) or (
                    instr.opcode == "store" and pos == 1
                )
                if not ok:
                    bad.add(id(op))
    return [a for a in allocas if id(a) not in bad]


def mem2reg(module: Module) -> int:
    """Promote allocas in every defined function; returns number promoted."""
    total = 0
    for fn in module.defined_functions():
        total += _promote_function(fn)
    return total


def _promote_function(fn: Function) -> int:
    allocas = _promotable_allocas(fn)
    if not allocas:
        return 0
    alloca_ids = {id(a) for a in allocas}
    elem_types = {id(a): a.type.element for a in allocas}
    preds = fn.predecessors()
    entry = fn.entry

    # ---- phase 1: static per-block scan -------------------------------
    # last_store[(var_id, block)] = raw stored operand (may be a load that
    # phase 2 replaces; phase 3 resolves transitively).
    last_store: Dict[Tuple[int, BasicBlock], Value] = {}
    for blk in fn.blocks:
        for instr in blk.instructions:
            if instr.opcode == "store" and id(instr.operands[1]) in alloca_ids:
                last_store[(id(instr.operands[1]), blk)] = instr.operands[0]

    # ---- phase 2: value threading with lazy phis -----------------------
    start_def: Dict[Tuple[int, BasicBlock], Value] = {}
    new_phis: List[Instruction] = []
    replacement: Dict[int, Value] = {}

    def start_val(var_id: int, blk: BasicBlock) -> Value:
        key = (var_id, blk)
        if key in start_def:
            return start_def[key]
        ps = preds[blk]
        if blk is entry or not ps:
            val: Value = Constant(0, elem_types[var_id])
            start_def[key] = val
            return val
        if len(ps) == 1:
            # No memo needed: any lookup cycle must pass through a
            # multi-pred block, whose placeholder phi (below) breaks it.
            val = end_val(var_id, ps[0])
            start_def[key] = val
            return val
        phi = Instruction("phi", [], elem_types[var_id], blocks=[])
        phi.parent = blk
        blk.instructions.insert(0, phi)
        new_phis.append(phi)
        start_def[key] = phi
        incoming = [(end_val(var_id, p), p) for p in ps]
        phi.operands = [v for v, _ in incoming]
        phi.blocks = [p for _, p in incoming]
        return phi

    def end_val(var_id: int, blk: BasicBlock) -> Value:
        stored = last_store.get((var_id, blk), _NO_STORE)
        if stored is not _NO_STORE:
            return stored
        return start_val(var_id, blk)

    dead: List[Instruction] = list(allocas)
    for blk in fn.blocks:
        running: Dict[int, Value] = {}
        # Snapshot: start_val may insert placeholder phis at the front of
        # this very block while we iterate.
        for instr in list(blk.instructions):
            if instr.opcode == "load" and id(instr.operands[0]) in alloca_ids:
                var_id = id(instr.operands[0])
                val = running.get(var_id)
                if val is None:
                    val = start_val(var_id, blk)
                replacement[id(instr)] = val
                dead.append(instr)
            elif instr.opcode == "store" and id(instr.operands[1]) in alloca_ids:
                running[id(instr.operands[1])] = instr.operands[0]
                dead.append(instr)

    # ---- phase 3: resolve replacements transitively --------------------
    replace_all_uses(fn, replacement)

    # ---- phase 4: trivial phi elimination -----------------------------
    changed = True
    while changed:
        changed = False
        for phi in list(new_phis):
            values = [v for v in phi.operands if v is not phi]
            if not values:
                continue
            if len({id(v) if not isinstance(v, Constant) else ("c", v.value, str(v.type)) for v in values}) == 1:
                replace_all_uses(fn, {id(phi): values[0]})
                erase_instructions(fn, [phi])
                new_phis.remove(phi)
                changed = True

    erase_instructions(fn, dead)
    return len(allocas)
