"""IR interpreter — the semantic oracle for compiled modules.

Executes a :class:`~repro.ir.module.Module` starting at ``main`` and
collects printed integers, so tests can assert
``AST interpreter == IR interpreter == binary VM`` across optimization
levels.  Pointers are (backing list, offset) pairs; external runtime
functions (Java array helpers, prints, library sorts) are modelled here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.ir.module import BasicBlock, Constant, Instruction, Module, Value
from repro.ir.types import IntType

_PRINT_CALLEES = {
    "print_i32",
    "printf",
    "_ZNSolsEi",
    "java.io.PrintStream.println",
}


class IRInterpError(RuntimeError):
    """Raised on malformed IR, runtime traps, or step-budget exhaustion."""


@dataclass
class Pointer:
    """A pointer value: backing storage plus an element offset."""

    array: list
    offset: int = 0

    def moved(self, delta: int) -> "Pointer":
        """Pointer arithmetic."""
        return Pointer(self.array, self.offset + delta)


def _wrap(value: int, bits: int) -> int:
    mask = (1 << bits) - 1
    value &= mask
    return value - (1 << bits) if value >= (1 << (bits - 1)) else value


def _trunc_div(a: int, b: int) -> int:
    if b == 0:
        raise IRInterpError("sdiv by zero")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


class IRInterpreter:
    """Executes modules; see module docstring."""

    def __init__(self, module: Module, max_steps: int = 5_000_000):  # noqa: D107
        self.module = module
        self.output: List[int] = []
        self.max_steps = max_steps
        self._steps = 0

    def run(self, entry: str = "main", args: Optional[list] = None) -> List[int]:
        """Execute ``entry``; returns the printed integers."""
        self.output = []
        self._steps = 0
        self.call(entry, args or [])
        return self.output

    # ------------------------------------------------------------ externals
    def _external(self, name: str, args: list):
        if name in _PRINT_CALLEES:
            self.output.append(int(args[0]))
            return None
        if name == "java.newarray":
            n = int(args[0])
            if n < 0:
                raise IRInterpError("NegativeArraySizeException")
            return Pointer([0] * n, 0)
        if name == "java.arraylength":
            ptr = args[0]
            return len(ptr.array)
        if name == "java.util.Arrays.sort":
            ptr, lo, hi = args[0], int(args[1]), int(args[2])
            base = ptr.offset
            ptr.array[base + lo : base + hi] = sorted(ptr.array[base + lo : base + hi])
            return None
        if name == "java.lang.Math.max":
            return max(args)
        if name == "java.lang.Math.min":
            return min(args)
        if name == "java.lang.Math.abs":
            return abs(args[0])
        if name == "java.throw.ArrayIndexOutOfBounds":
            raise IRInterpError("ArrayIndexOutOfBoundsException")
        raise IRInterpError(f"call to unknown external {name!r}")

    # ----------------------------------------------------------------- call
    def call(self, name: str, args: list):
        """Invoke a function (defined or external) with evaluated args."""
        try:
            fn = self.module.get(name)
        except KeyError:
            return self._external(name, args)
        if fn.is_declaration:
            return self._external(name, args)
        if len(args) != len(fn.args):
            raise IRInterpError(f"{name}: arity mismatch")
        env: Dict[int, object] = {id(a): v for a, v in zip(fn.args, args)}
        block = fn.entry
        prev_block: Optional[BasicBlock] = None
        while True:
            self._steps += 1
            if self._steps > self.max_steps:
                raise IRInterpError("step budget exceeded")
            # Phase 1: evaluate all phis against the incoming edge at once.
            phi_values = {}
            idx = 0
            for instr in block.instructions:
                if instr.opcode != "phi":
                    break
                idx += 1
                matched = False
                for val, pred in zip(instr.operands, instr.blocks):
                    if pred is prev_block:
                        phi_values[id(instr)] = self._value(val, env)
                        matched = True
                        break
                if not matched:
                    raise IRInterpError(
                        f"phi in {block.label} has no incoming for predecessor"
                    )
            env.update(phi_values)
            # Phase 2: run the straight-line remainder.
            for instr in block.instructions[idx:]:
                self._steps += 1
                if self._steps > self.max_steps:
                    raise IRInterpError("step budget exceeded")
                result = self._exec(instr, env)
                if instr.opcode == "ret":
                    return result
                if instr.opcode in ("br", "condbr"):
                    prev_block, block = block, result
                    break
                env[id(instr)] = result
            else:
                raise IRInterpError(f"block {block.label} has no terminator")

    # ----------------------------------------------------------- evaluation
    def _value(self, v: Value, env: Dict[int, object]):
        if isinstance(v, Constant):
            return v.value
        val = env.get(id(v), _MISSING)
        if val is _MISSING:
            raise IRInterpError(f"use of undefined value {v!r}")
        return val

    def _exec(self, instr: Instruction, env: Dict[int, object]):
        op = instr.opcode
        if op == "alloca":
            count = (
                int(self._value(instr.operands[0], env)) if instr.operands else 1
            )
            if count < 0:
                raise IRInterpError("negative alloca count")
            return Pointer([0] * count, 0)
        if op == "load":
            ptr = self._value(instr.operands[0], env)
            self._check_ptr(ptr)
            return ptr.array[ptr.offset]
        if op == "store":
            val = self._value(instr.operands[0], env)
            ptr = self._value(instr.operands[1], env)
            self._check_ptr(ptr)
            ptr.array[ptr.offset] = val
            return None
        if op == "gep":
            ptr = self._value(instr.operands[0], env)
            idx = int(self._value(instr.operands[1], env))
            return ptr.moved(idx)
        if op in ("add", "sub", "mul", "sdiv", "srem", "and", "or", "xor", "shl", "ashr"):
            a = self._value(instr.operands[0], env)
            b = self._value(instr.operands[1], env)
            bits = instr.type.bits if isinstance(instr.type, IntType) else 64
            if op == "add":
                r = a + b
            elif op == "sub":
                r = a - b
            elif op == "mul":
                r = a * b
            elif op == "sdiv":
                r = _trunc_div(a, b)
            elif op == "srem":
                r = a - _trunc_div(a, b) * b if b != 0 else self._raise_div()
            elif op == "and":
                r = a & b
            elif op == "or":
                r = a | b
            elif op == "xor":
                r = a ^ b
            elif op == "shl":
                r = a << (b % bits)
            else:  # ashr
                r = a >> (b % bits)
            return _wrap(r, bits)
        if op == "icmp":
            a = self._value(instr.operands[0], env)
            b = self._value(instr.operands[1], env)
            pred = instr.extra["pred"]
            table = {
                "eq": a == b,
                "ne": a != b,
                "slt": a < b,
                "sle": a <= b,
                "sgt": a > b,
                "sge": a >= b,
            }
            return 1 if table[pred] else 0
        if op in ("zext", "trunc", "sext"):
            val = int(self._value(instr.operands[0], env))
            bits = instr.type.bits
            if op == "zext":
                src_bits = instr.operands[0].type.bits
                return val & ((1 << src_bits) - 1)
            return _wrap(val, bits)
        if op == "br":
            return instr.blocks[0]
        if op == "condbr":
            cond = self._value(instr.operands[0], env)
            return instr.blocks[0] if cond else instr.blocks[1]
        if op == "ret":
            return self._value(instr.operands[0], env) if instr.operands else None
        if op == "unreachable":
            raise IRInterpError("reached unreachable")
        if op == "call":
            args = [self._value(a, env) for a in instr.operands]
            return self.call(instr.extra["callee"], args)
        raise IRInterpError(f"unknown opcode {op!r}")

    @staticmethod
    def _raise_div():
        raise IRInterpError("srem by zero")

    @staticmethod
    def _check_ptr(ptr):
        if not isinstance(ptr, Pointer):
            raise IRInterpError("memory access through a non-pointer")
        if not (0 <= ptr.offset < len(ptr.array)):
            raise IRInterpError(
                f"out-of-bounds access at offset {ptr.offset} of {len(ptr.array)}"
            )


class _Missing:
    pass


_MISSING = _Missing()


def run_module(module: Module, entry: str = "main") -> List[int]:
    """Convenience wrapper around :class:`IRInterpreter`."""
    return IRInterpreter(module).run(entry)
