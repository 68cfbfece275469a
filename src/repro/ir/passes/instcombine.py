"""Instruction combining: cheap algebraic identities.

``x+0``, ``x-0``, ``x*1``, ``x*0``, ``x/1``, ``x^0``, ``x<<0``, ``x>>0``,
``0+x``, ``1*x``, ``-(-x)``, and gep with index 0.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.ir.module import Constant, Instruction, Module, Value
from repro.ir.passes.common import erase_instructions, replace_all_uses


def _is_const(v: Value, value: int) -> bool:
    return isinstance(v, Constant) and v.value == value


def _simplify(instr: Instruction) -> Optional[Value]:
    op = instr.opcode
    if op == "add":
        a, b = instr.operands
        if _is_const(b, 0):
            return a
        if _is_const(a, 0):
            return b
    elif op == "sub":
        a, b = instr.operands
        if _is_const(b, 0):
            return a
        # -(-x) → x : sub(0, sub(0, x))
        if (
            _is_const(a, 0)
            and isinstance(b, Instruction)
            and b.opcode == "sub"
            and _is_const(b.operands[0], 0)
        ):
            return b.operands[1]
    elif op == "mul":
        a, b = instr.operands
        if _is_const(b, 1):
            return a
        if _is_const(a, 1):
            return b
        if _is_const(a, 0) or _is_const(b, 0):
            return Constant(0, instr.type)
    elif op == "sdiv":
        a, b = instr.operands
        if _is_const(b, 1):
            return a
    elif op in ("xor", "or"):
        a, b = instr.operands
        if _is_const(b, 0):
            return a
        if _is_const(a, 0):
            return b
    elif op in ("shl", "ashr"):
        a, b = instr.operands
        if _is_const(b, 0):
            return a
    elif op == "gep":
        ptr, idx = instr.operands
        if _is_const(idx, 0):
            return ptr
    return None


def instcombine(module: Module) -> int:
    """Apply identities until fixpoint; returns instructions simplified."""
    total = 0
    for fn in module.defined_functions():
        changed = True
        while changed:
            changed = False
            replacement: Dict[int, Value] = {}
            dead = []
            for blk in fn.blocks:
                for instr in blk.instructions:
                    simpler = _simplify(instr)
                    if simpler is not None:
                        replacement[id(instr)] = simpler
                        dead.append(instr)
            if replacement:
                replace_all_uses(fn, replacement)
                erase_instructions(fn, dead)
                total += len(dead)
                changed = True
    return total
