"""Binary → IR lifter: the RetDec substitute.

Given an encoded :class:`~repro.binary.isa.BinaryProgram`, the decompiler
disassembles it, recovers the CFG (branch-target leader analysis), and lifts
each machine instruction back to IR.  The output reproduces the two
artefacts the paper attributes to real decompilers:

1. **Type imprecision** — every recovered value is ``i64``; array shapes
   are gone; register traffic appears as load/store round-trips through
   recovered register variables, plus ``inttoptr``/``ptrtoint`` casts.
2. **Speculative control-flow reconstruction** — conditions are re-derived
   from CMP/Bcc pairs, compare-materialization patterns become extra
   diamonds, and the block structure differs from the front-end IR even
   for the same source.

Decompiled IR is *structural* output for graph construction (like RetDec's,
it is not guaranteed to re-execute); semantic fidelity of the binary itself
is verified by the VM instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.binary.isa import NUM_REGS, BinaryFunction, BinaryProgram, DecompileError, MachineInstr
from repro.ir.builder import IRBuilder
from repro.ir.module import BasicBlock, Constant, Function, Instruction, Module, Value
from repro.ir.types import I64, PTR_I64

_BRANCHES = {"BEQ": "eq", "BNE": "ne", "BLT": "slt", "BLE": "sle", "BGT": "sgt", "BGE": "sge"}
_ALU = {
    "ADD": "add",
    "SUB": "sub",
    "MUL": "mul",
    "DIV": "sdiv",
    "REM": "srem",
    "AND": "and",
    "OR": "or",
    "XOR": "xor",
    "SHL": "shl",
    "SAR": "ashr",
}


def _find_leaders(code: List[MachineInstr]) -> List[int]:
    """Block leaders: offset 0, branch targets, fall-throughs of branches."""
    leaders: Set[int] = {0}
    for i, ins in enumerate(code):
        if ins.op in _BRANCHES or ins.op == "JMP":
            leaders.add(ins.imm)
            if i + 1 < len(code):
                leaders.add(i + 1)
        elif ins.op in ("RET", "HALT"):
            if i + 1 < len(code):
                leaders.add(i + 1)
    return sorted(x for x in leaders if 0 <= x < len(code))


class _FunctionLifter:
    """Lift one binary function into an IR function."""

    def __init__(self, program: BinaryProgram, bf: BinaryFunction, fn: Function):  # noqa: D107
        self.program = program
        self.bf = bf
        self.fn = fn
        self.code = program.instructions[bf.start : bf.start + bf.length]
        self.builder = IRBuilder()
        self.reg_slots: List[Value] = []
        self.frame: Optional[Value] = None
        self.blocks_by_leader: Dict[int, BasicBlock] = {}

    def lift(self) -> None:
        """Build the recovered CFG and lift every instruction."""
        b = self.builder
        entry = self.fn.new_block("dec_entry")
        b.position(entry)

        # Recovered register variables (all i64 — type recovery is lossy).
        for r in range(NUM_REGS):
            slot = b.alloca(I64, name=f"r{r}")
            self.reg_slots.append(slot)
        # Recovered stack frame: one flat i64 array.
        frame_words = 1
        for ins in self.code:
            if ins.op == "ENTER":
                frame_words = max(frame_words, ins.imm + 1)
        self.frame = b.alloca(I64, count=Constant(frame_words, I64))
        # Arguments arrive in r0..r5: spill them like the prologue did.
        for i in range(self.bf.num_args):
            self._write_reg(i, b.sext(self.fn.args[i], I64))

        leaders = _find_leaders(self.code)
        for lead in leaders:
            self.blocks_by_leader[lead] = self.fn.new_block(f"dec_bb{lead}")
        b.br(self.blocks_by_leader[leaders[0]])

        for li, lead in enumerate(leaders):
            end = leaders[li + 1] if li + 1 < len(leaders) else len(self.code)
            self._lift_block(lead, end)

    # ------------------------------------------------------------ helpers
    def _slot(self, r: int) -> Value:
        try:
            return self.reg_slots[r]
        except IndexError:
            raise DecompileError(
                f"{self.bf.name}: register r{r} out of range (r0..r{NUM_REGS - 1})"
            ) from None

    def _read_reg(self, r: int) -> Value:
        return self.builder.load(self._slot(r))

    def _write_reg(self, r: int, value: Value) -> None:
        self.builder.store(value, self._slot(r))

    def _addr(self, base_reg: int, imm: int) -> Value:
        """Recover an address expression for LD/ST."""
        b = self.builder
        if base_reg == 13:  # frame-relative
            return b.gep(self.frame, Constant(imm, I64))
        base = self._read_reg(base_reg)
        if imm:
            base = b.add(base, Constant(imm, I64))
        # Speculative pointer recovery: integer reinterpreted as pointer.
        return b._emit(Instruction("inttoptr", [base], PTR_I64))

    def _lift_block(self, start: int, end: int) -> None:
        b = self.builder
        blk = self.blocks_by_leader[start]
        b.position(blk)
        last_cmp: Optional[Tuple[Value, Value]] = None
        i = start
        terminated = False
        while i < end:
            ins = self.code[i]
            op = ins.op
            if op == "ENTER" or op == "LEAVE":
                pass
            elif op == "MOVI":
                self._write_reg(ins.rd, Constant(ins.imm, I64))
            elif op == "MOV":
                self._write_reg(ins.rd, self._read_reg(ins.rs))
            elif op == "LEA":
                ptr = b.gep(self.frame, Constant(ins.imm, I64))
                as_int = b._emit(Instruction("ptrtoint", [ptr], I64))
                self._write_reg(ins.rd, as_int)
            elif op == "SALLOC":
                count = self._read_reg(ins.rs)
                buf = b.call("__alloca", [count], I64)
                self._write_reg(ins.rd, buf)
            elif op == "LD":
                ptr = self._addr(ins.rs, ins.imm)
                self._write_reg(ins.rd, b.load(ptr))
            elif op == "ST":
                val = self._read_reg(ins.rs)
                ptr = self._addr(ins.rd, ins.imm)
                b.store(val, ptr)
            elif op in _ALU:
                lhs = self._read_reg(ins.rd)
                rhs = self._read_reg(ins.rs)
                self._write_reg(ins.rd, b.binary(_ALU[op], lhs, rhs))
            elif op == "CMP":
                last_cmp = (self._read_reg(ins.rd), self._read_reg(ins.rs))
            elif op in _BRANCHES:
                if last_cmp is None:
                    # Decompiler speculation: compare a recovered flag var.
                    flag = self._read_reg(0)
                    cond = b.icmp(_BRANCHES[op], flag, Constant(0, I64))
                else:
                    cond = b.icmp(_BRANCHES[op], last_cmp[0], last_cmp[1])
                taken = self._target(ins.imm)
                fallthrough = self._target(i + 1)
                b.condbr(cond, taken, fallthrough)
                terminated = True
                break
            elif op == "JMP":
                b.br(self._target(ins.imm))
                terminated = True
                break
            elif op == "RET":
                b.ret(self._read_reg(0))
                terminated = True
                break
            elif op == "HALT":
                b.unreachable()
                terminated = True
                break
            elif op == "CALL":
                callee = self._symbol(self.program.functions, ins.imm, "function")
                args = [self._read_reg(r) for r in range(callee.num_args)]
                result = b.call(callee.name, args, I64)
                self._write_reg(0, result)
            elif op == "CALLX":
                name = self._symbol(self.program.externals, ins.imm, "external")
                args = [self._read_reg(r) for r in range(ins.rs)]
                result = b.call(name, args, I64)
                self._write_reg(0, result)
            else:  # pragma: no cover
                raise DecompileError(f"cannot lift {op}")
            i += 1
        if not terminated:
            # fall through into the next recovered block
            if i in self.blocks_by_leader:
                b.br(self.blocks_by_leader[i])
            else:
                b.ret(Constant(0, I64))

    def _symbol(self, table: list, index: int, kind: str):
        if not 0 <= index < len(table):
            raise DecompileError(
                f"{self.bf.name}: {kind} index {index} out of range ({len(table)} {kind}s)"
            )
        return table[index]

    def _target(self, offset: int) -> BasicBlock:
        if offset not in self.blocks_by_leader:
            raise DecompileError(f"branch to non-leader offset {offset}")
        return self.blocks_by_leader[offset]


def decompile(program: BinaryProgram, module_name: str = "decompiled") -> Module:
    """Lift a whole binary back to an IR module.

    External symbols become declarations (all-i64 signatures — recovered
    types, not the originals).
    """
    module = Module(module_name, source_language="decompiled")
    for ext in program.externals:
        module.add(
            Function(
                ext,
                [I64] * 3,  # recovered arity is imprecise; RetDec guesses too
                ["a0", "a1", "a2"],
                I64,
                is_declaration=True,
            )
        )
    if any(ins.op == "SALLOC" for ins in program.instructions):
        module.add(Function("__alloca", [I64], ["n"], I64, is_declaration=True))
    n_code = len(program.instructions)
    for bf in program.functions:
        if bf.length < 1 or bf.start + bf.length > n_code:
            raise DecompileError(
                f"function {bf.name!r} spans [{bf.start}, {bf.start + bf.length}) "
                f"outside the {n_code}-instruction stream"
            )
        fn = Function(
            bf.name,
            [I64] * bf.num_args,
            [f"arg{i}" for i in range(bf.num_args)],
            I64,
        )
        module.add(fn)
        _FunctionLifter(program, bf, fn).lift()
    return module


def decompile_bytes(raw: bytes, module_name: str = "decompiled") -> Module:
    """Parse an object file and decompile it."""
    return decompile(BinaryProgram.decode(raw), module_name)
