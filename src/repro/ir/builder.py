"""IRBuilder: positioned instruction factory, like ``llvm::IRBuilder``."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.ir.module import BasicBlock, Constant, Instruction, Value
from repro.ir.types import I1, I32, VOID, IRType, PtrType


class IRBuilder:
    """Appends instructions to a current insertion block."""

    def __init__(self, block: Optional[BasicBlock] = None):  # noqa: D107
        self.block = block

    def position(self, block: BasicBlock) -> None:
        """Move the insertion point to ``block``."""
        self.block = block

    def _emit(self, instr: Instruction) -> Instruction:
        if self.block is None:
            raise RuntimeError("builder has no insertion block")
        term = self.block.terminator
        if term is not None:
            raise RuntimeError(
                f"emitting into terminated block {self.block.label}"
            )
        return self.block.append(instr)

    # ----------------------------------------------------------- memory
    def alloca(self, element: IRType, count: Optional[Value] = None, name: str = "") -> Instruction:
        """Stack allocation of one element, or ``count`` elements."""
        operands = [count] if count is not None else []
        return self._emit(
            Instruction("alloca", operands, PtrType(element), extra={"name": name})
        )

    def load(self, ptr: Value) -> Instruction:
        """Load through a pointer."""
        if not isinstance(ptr.type, PtrType):
            raise TypeError(f"load from non-pointer {ptr.type}")
        return self._emit(Instruction("load", [ptr], ptr.type.element))

    def store(self, value: Value, ptr: Value) -> Instruction:
        """Store through a pointer."""
        if not isinstance(ptr.type, PtrType):
            raise TypeError(f"store to non-pointer {ptr.type}")
        return self._emit(Instruction("store", [value, ptr], VOID))

    def gep(self, ptr: Value, index: Value) -> Instruction:
        """Pointer arithmetic: ``&ptr[index]``."""
        if not isinstance(ptr.type, PtrType):
            raise TypeError(f"gep on non-pointer {ptr.type}")
        return self._emit(Instruction("gep", [ptr, index], ptr.type))

    # ------------------------------------------------------- arithmetic
    def binary(self, op: str, lhs: Value, rhs: Value) -> Instruction:
        """Integer binary operation (result type = lhs type)."""
        return self._emit(Instruction(op, [lhs, rhs], lhs.type))

    def add(self, a: Value, b: Value) -> Instruction:
        """a + b"""
        return self.binary("add", a, b)

    def sub(self, a: Value, b: Value) -> Instruction:
        """a - b"""
        return self.binary("sub", a, b)

    def mul(self, a: Value, b: Value) -> Instruction:
        """a * b"""
        return self.binary("mul", a, b)

    def sdiv(self, a: Value, b: Value) -> Instruction:
        """a / b (signed, truncating)"""
        return self.binary("sdiv", a, b)

    def srem(self, a: Value, b: Value) -> Instruction:
        """a % b (signed)"""
        return self.binary("srem", a, b)

    def icmp(self, pred: str, lhs: Value, rhs: Value) -> Instruction:
        """Integer comparison producing i1."""
        return self._emit(Instruction("icmp", [lhs, rhs], I1, extra={"pred": pred}))

    def zext(self, value: Value, to: IRType) -> Instruction:
        """Zero-extend."""
        return self._emit(Instruction("zext", [value], to))

    def sext(self, value: Value, to: IRType) -> Instruction:
        """Sign-extend."""
        return self._emit(Instruction("sext", [value], to))

    def trunc(self, value: Value, to: IRType) -> Instruction:
        """Truncate to a narrower integer."""
        return self._emit(Instruction("trunc", [value], to))

    # ----------------------------------------------------- control flow
    def br(self, target: BasicBlock) -> Instruction:
        """Unconditional branch."""
        return self._emit(Instruction("br", [], VOID, blocks=[target]))

    def condbr(self, cond: Value, if_true: BasicBlock, if_false: BasicBlock) -> Instruction:
        """Conditional branch on an i1."""
        return self._emit(
            Instruction("condbr", [cond], VOID, blocks=[if_true, if_false])
        )

    def ret(self, value: Optional[Value] = None) -> Instruction:
        """Return (optionally with a value)."""
        return self._emit(Instruction("ret", [value] if value is not None else [], VOID))

    def unreachable(self) -> Instruction:
        """Marker for impossible control flow (after a throw)."""
        return self._emit(Instruction("unreachable", [], VOID))

    def phi(self, type: IRType, pairs: Sequence[tuple] = ()) -> Instruction:
        """Phi node; ``pairs`` is a list of (value, predecessor_block)."""
        operands = [v for v, _ in pairs]
        blocks = [b for _, b in pairs]
        instr = Instruction("phi", operands, type, blocks=blocks)
        return self._emit(instr)

    def call(
        self,
        callee: str,
        args: Sequence[Value],
        return_type: IRType,
    ) -> Instruction:
        """Direct call by function name."""
        return self._emit(
            Instruction("call", list(args), return_type, extra={"callee": callee})
        )

    # -------------------------------------------------------- constants
    @staticmethod
    def const(value: int, type: IRType = I32) -> Constant:
        """Integer constant."""
        return Constant(value, type)

    @staticmethod
    def true() -> Constant:
        """i1 1"""
        return Constant(1, I1)

    @staticmethod
    def false() -> Constant:
        """i1 0"""
        return Constant(0, I1)
