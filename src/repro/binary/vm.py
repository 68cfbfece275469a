"""Virtual machine: executes :class:`~repro.binary.isa.BinaryProgram`.

The execution oracle for compiled binaries — tests assert that VM output
matches the AST and IR interpreters for every program and optimization
level.  Memory is word-addressed: stack words live at low addresses, heap
allocations (Java arrays) at ``HEAP_BASE`` upward with a hidden length
header, mirroring a JVM-ish object layout.

Register 13 in LD/ST/LEA denotes the frame base (sp-relative addressing).
"""

from __future__ import annotations

from typing import List, Optional

from repro.binary.isa import BinaryFunction, BinaryProgram

HEAP_BASE = 1 << 20
STACK_WORDS = 1 << 16

_PRINT_EXTERNALS = {
    "print_i32",
    "printf",
    "_ZNSolsEi",
    "java.io.PrintStream.println",
}


class VMError(RuntimeError):
    """Raised on traps: bad memory, unknown externals, step exhaustion."""


def _wrap64(x: int) -> int:
    x &= (1 << 64) - 1
    return x - (1 << 64) if x >= (1 << 63) else x


class VirtualMachine:
    """Fetch/decode/execute loop over a loaded binary."""

    def __init__(self, program: BinaryProgram, max_steps: int = 20_000_000):  # noqa: D107
        self.program = program
        self.max_steps = max_steps
        self.output: List[int] = []
        self.stack = [0] * STACK_WORDS
        self.heap: List[int] = []
        self.regs = [0] * 14  # r0..r11, (12 unused), 13 = frame base alias
        self.flag_cmp = 0  # sign of (rd - rs) from the last CMP
        self.sp = 1  # word 0 is a null guard
        self._steps = 0

    # ------------------------------------------------------------ memory
    def _read(self, addr: int) -> int:
        if addr >= HEAP_BASE:
            off = addr - HEAP_BASE
            if not (0 <= off < len(self.heap)):
                raise VMError(f"heap read out of range: {addr}")
            return self.heap[off]
        if not (1 <= addr < self.sp):
            raise VMError(f"stack read out of range: {addr} (sp={self.sp})")
        return self.stack[addr]

    def _write(self, addr: int, value: int) -> None:
        if addr >= HEAP_BASE:
            off = addr - HEAP_BASE
            if not (0 <= off < len(self.heap)):
                raise VMError(f"heap write out of range: {addr}")
            self.heap[off] = value
            return
        if not (1 <= addr < self.sp):
            raise VMError(f"stack write out of range: {addr} (sp={self.sp})")
        self.stack[addr] = value

    def _heap_alloc(self, words: int) -> int:
        """Allocate a heap block with a length header; returns data address."""
        if words < 0:
            raise VMError("NegativeArraySizeException")
        header = len(self.heap)
        self.heap.append(words)
        self.heap.extend([0] * words)
        return HEAP_BASE + header + 1

    # --------------------------------------------------------- externals
    def _call_external(self, name: str, args: List[int]) -> int:
        if name in _PRINT_EXTERNALS:
            self.output.append(int(args[0]))
            return 0
        if name == "java.newarray":
            return self._heap_alloc(args[0])
        if name == "java.arraylength":
            addr = args[0]
            if addr < HEAP_BASE:
                raise VMError("arraylength of non-heap pointer")
            return self.heap[addr - HEAP_BASE - 1]
        if name == "java.util.Arrays.sort":
            addr, lo, hi = args
            base = addr - HEAP_BASE
            self.heap[base + lo : base + hi] = sorted(self.heap[base + lo : base + hi])
            return 0
        if name == "java.lang.Math.max":
            return max(args)
        if name == "java.lang.Math.min":
            return min(args)
        if name == "java.lang.Math.abs":
            return abs(args[0])
        if name == "java.throw.ArrayIndexOutOfBounds":
            raise VMError("ArrayIndexOutOfBoundsException")
        raise VMError(f"unknown external {name!r}")

    # ----------------------------------------------------------- running
    def run(self, entry: Optional[str] = None) -> List[int]:
        """Execute from the entry symbol; returns printed integers."""
        self.output = []
        entry_fn = self.program.function(entry or self.program.entry)
        self._exec_function(entry_fn, [])
        return self.output

    def _exec_function(self, fn: BinaryFunction, args: List[int]) -> int:
        code = self.program.instructions
        for i, a in enumerate(args):
            self.regs[i] = a
        pc = fn.start
        frame_base = 0
        frame_saved_sp = self.sp
        while True:
            self._steps += 1
            if self._steps > self.max_steps:
                raise VMError("step budget exceeded")
            if pc >= len(code):
                raise VMError("pc ran off the end of the code")
            ins = code[pc]
            op = ins.op
            if op == "ENTER":
                frame_base = self.sp
                self.sp += ins.imm
                if self.sp >= STACK_WORDS:
                    raise VMError("stack overflow")
                pc += 1
            elif op == "LEAVE":
                self.sp = frame_saved_sp
                pc += 1
            elif op == "RET":
                return self.regs[0]
            elif op == "HALT":
                raise VMError("halt (unreachable executed)")
            elif op == "MOVI":
                self.regs[ins.rd] = ins.imm
                pc += 1
            elif op == "MOV":
                self.regs[ins.rd] = self.regs[ins.rs]
                pc += 1
            elif op == "LEA":
                self.regs[ins.rd] = frame_base + ins.imm
                pc += 1
            elif op == "SALLOC":
                words = self.regs[ins.rs]
                if words < 0:
                    raise VMError("negative stack allocation")
                self.regs[ins.rd] = self.sp
                self.sp += words
                if self.sp >= STACK_WORDS:
                    raise VMError("stack overflow")
                pc += 1
            elif op == "LD":
                base = frame_base if ins.rs == 13 else self.regs[ins.rs]
                self.regs[ins.rd] = self._read(base + ins.imm)
                pc += 1
            elif op == "ST":
                base = frame_base if ins.rd == 13 else self.regs[ins.rd]
                self._write(base + ins.imm, self.regs[ins.rs])
                pc += 1
            elif op in ("ADD", "SUB", "MUL", "DIV", "REM", "AND", "OR", "XOR", "SHL", "SAR"):
                a = self.regs[ins.rd]
                b = self.regs[ins.rs]
                if op == "ADD":
                    r = a + b
                elif op == "SUB":
                    r = a - b
                elif op == "MUL":
                    r = a * b
                elif op == "DIV":
                    if b == 0:
                        raise VMError("integer division by zero")
                    q = abs(a) // abs(b)
                    r = -q if (a < 0) != (b < 0) else q
                elif op == "REM":
                    if b == 0:
                        raise VMError("integer remainder by zero")
                    q = abs(a) // abs(b)
                    q = -q if (a < 0) != (b < 0) else q
                    r = a - q * b
                elif op == "AND":
                    r = a & b
                elif op == "OR":
                    r = a | b
                elif op == "XOR":
                    r = a ^ b
                elif op == "SHL":
                    r = a << (b % 64)
                else:
                    r = a >> (b % 64)
                self.regs[ins.rd] = _wrap64(r)
                pc += 1
            elif op == "CMP":
                diff = self.regs[ins.rd] - self.regs[ins.rs]
                self.flag_cmp = (diff > 0) - (diff < 0)
                pc += 1
            elif op in ("BEQ", "BNE", "BLT", "BLE", "BGT", "BGE"):
                taken = {
                    "BEQ": self.flag_cmp == 0,
                    "BNE": self.flag_cmp != 0,
                    "BLT": self.flag_cmp < 0,
                    "BLE": self.flag_cmp <= 0,
                    "BGT": self.flag_cmp > 0,
                    "BGE": self.flag_cmp >= 0,
                }[op]
                pc = fn.start + ins.imm if taken else pc + 1
            elif op == "JMP":
                pc = fn.start + ins.imm
            elif op == "CALL":
                callee = self.program.functions[ins.imm]
                saved = self.regs[:]
                result = self._exec_function(callee, self.regs[: callee.num_args])
                self.regs = saved
                self.regs[0] = result
                pc += 1
            elif op == "CALLX":
                name = self.program.externals[ins.imm]
                result = self._call_external(name, self.regs[: ins.rs])
                self.regs[0] = result if result is not None else 0
                pc += 1
            else:  # pragma: no cover
                raise VMError(f"unhandled opcode {op}")


def run_binary(program: BinaryProgram, entry: Optional[str] = None) -> List[int]:
    """Convenience wrapper: execute and return printed integers."""
    return VirtualMachine(program).run(entry)
