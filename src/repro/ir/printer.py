"""Textual IR printer with LLVM-like syntax.

The printed text feeds two consumers: human inspection, and the ProGraML-
style graph builder, whose node features are exactly these instruction
strings (``full_text``) or their opcodes (``text``).
"""

from __future__ import annotations

from typing import Dict, List

from repro.ir.module import BINARY_OPS, Constant, Function, Instruction, Module, Value
from repro.ir.types import VoidType

_BINARY_OPS = frozenset(BINARY_OPS)
_CASTS = frozenset(("zext", "sext", "trunc", "inttoptr", "ptrtoint"))


class Namer:
    """Assigns stable ``%N`` names to instructions within one function.

    Names are keyed by the instruction object itself (instructions hash by
    identity), so a lookup is exact and costs no ``id()`` call.
    """

    def __init__(self) -> None:  # noqa: D107
        self._names: Dict[Instruction, str] = {}
        self._counter = 0

    def name(self, value: Value) -> str:
        """Operand spelling for any value."""
        if isinstance(value, Instruction):
            spelled = self._names.get(value)
            if spelled is None:
                spelled = self._names[value] = f"%{self._counter}"
                self._counter += 1
            return spelled
        if isinstance(value, Constant):
            return str(value.value)
        # Argument
        return value.short()

    def typed(self, value: Value) -> str:
        """Operand spelling prefixed by its type (``i64 %3``)."""
        return f"{value.type.text} {self.name(value)}"

    def assign_all(self, fn: Function) -> None:
        """Pre-assign names in program order so output reads top-down."""
        names = self._names
        for blk in fn.blocks:
            for instr in blk.instructions:
                if instr not in names and not isinstance(instr.type, VoidType):
                    names[instr] = f"%{self._counter}"
                    self._counter += 1


def instruction_text(instr: Instruction, namer: Namer) -> str:
    """Render one instruction as LLVM-like text (the ProGraML full_text)."""
    op = instr.opcode
    ops = instr.operands
    n = namer.name
    typed = namer.typed
    # Most frequent opcodes first: decompiled code is load/store heavy.
    if op == "load":
        return f"{n(instr)} = load {instr.type.text}, {typed(ops[0])}"
    if op == "store":
        val, ptr = ops
        return f"store {typed(val)}, {typed(ptr)}"
    if op in _BINARY_OPS:
        a, b = ops
        return f"{n(instr)} = {op} {instr.type.text} {n(a)}, {n(b)}"
    if op == "gep":
        ptr, idx = ops
        return f"{n(instr)} = getelementptr {ptr.type.element.text}, {typed(ptr)}, {typed(idx)}"
    if op in _CASTS:
        (a,) = ops
        return f"{n(instr)} = {op} {a.type.text} {n(a)} to {instr.type.text}"
    if op == "alloca":
        if ops:
            return f"{n(instr)} = alloca {instr.type.element.text}, i32 {n(ops[0])}"
        return f"{n(instr)} = alloca {instr.type.element.text}"
    if op == "icmp":
        a, b = ops
        return f"{n(instr)} = icmp {instr.extra['pred']} {a.type.text} {n(a)}, {n(b)}"
    if op == "br":
        return f"br label %{instr.blocks[0].label}"
    if op == "condbr":
        return (
            f"br i1 {n(ops[0])}, label %{instr.blocks[0].label}, "
            f"label %{instr.blocks[1].label}"
        )
    if op == "call":
        args = ", ".join([typed(a) for a in ops])
        callee = instr.extra["callee"]
        if isinstance(instr.type, VoidType):
            return f"call void @{callee}({args})"
        return f"{n(instr)} = call {instr.type.text} @{callee}({args})"
    if op == "ret":
        if ops:
            return f"ret {typed(ops[0])}"
        return "ret void"
    if op == "unreachable":
        return "unreachable"
    if op == "phi":
        pairs = ", ".join(
            [f"[ {n(v)}, %{b.label} ]" for v, b in zip(ops, instr.blocks)]
        )
        return f"{n(instr)} = phi {instr.type.text} {pairs}"
    raise ValueError(f"cannot print opcode {op!r}")


def print_function(fn: Function) -> str:
    """Render one function definition or declaration."""
    params = ", ".join(f"{a.type} %{a.name}" for a in fn.args)
    if fn.is_declaration:
        arg_types = ", ".join(str(a.type) for a in fn.args)
        return f"declare {fn.return_type} @{fn.name}({arg_types})"
    namer = Namer()
    namer.assign_all(fn)
    lines: List[str] = [f"define {fn.return_type} @{fn.name}({params}) {{"]
    for blk in fn.blocks:
        lines.append(f"{blk.label}:")
        for instr in blk.instructions:
            lines.append("  " + instruction_text(instr, namer))
    lines.append("}")
    return "\n".join(lines)


def print_module(module: Module) -> str:
    """Render the whole module."""
    header = f"; ModuleID = '{module.name}'"
    if module.source_language:
        header += f"\n; source_language = {module.source_language}"
    return "\n\n".join([header] + [print_function(f) for f in module.functions]) + "\n"
