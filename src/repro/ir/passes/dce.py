"""Dead code elimination: drop unused side-effect-free instructions."""

from __future__ import annotations

from repro.ir.module import Module
from repro.ir.passes.common import erase_instructions, use_counts

_PURE = {
    "alloca",
    "load",
    "gep",
    "add",
    "sub",
    "mul",
    "sdiv",
    "srem",
    "and",
    "or",
    "xor",
    "shl",
    "ashr",
    "icmp",
    "zext",
    "sext",
    "trunc",
    "phi",
}


def dead_code_elimination(module: Module) -> int:
    """Iteratively remove unused pure instructions; returns removal count.

    Note: ``sdiv``/``srem`` can trap on zero divisors, but LLVM also treats
    unused division as removable (the trap is not a guaranteed side effect);
    we follow that semantics, which keeps O-levels observably equivalent on
    non-trapping programs.
    """
    removed = 0
    for fn in module.defined_functions():
        while True:
            counts = use_counts(fn)
            dead = [
                i
                for i in fn.instructions()
                if i.opcode in _PURE and counts.get(id(i), 0) == 0
            ]
            if not dead:
                break
            removed += erase_instructions(fn, dead)
    return removed
