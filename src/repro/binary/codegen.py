"""IR → machine-code generation (the compiler back-end).

A classic spill-everything backend: every SSA value gets a stack slot,
each IR instruction loads its operands into scratch registers, computes,
and stores the result back.  Phi nodes are eliminated with the standard
two-phase edge-copy scheme (temps first, then phi slots, so parallel
copies cannot clobber each other).

Two styles model the paper's two compilers:

* ``clang`` — the plain spill-everything code above.
* ``gcc`` — the same, plus redundant reload-after-store, register
  shuffling, and frame canaries.  The paper measured gcc-compiled binaries
  decompiling to ~70% larger IR than clang's; the redundancy knob
  reproduces that asymmetry (RQ3).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.binary.isa import BinaryFunction, BinaryProgram, MachineInstr
from repro.ir.module import BasicBlock, Constant, Function, Instruction, Module, Value
from repro.ir.types import VOID

_PRED_TO_BRANCH = {
    "eq": "BEQ",
    "ne": "BNE",
    "slt": "BLT",
    "sle": "BLE",
    "sgt": "BGT",
    "sge": "BGE",
}

_BINOP_TO_OP = {
    "add": "ADD",
    "sub": "SUB",
    "mul": "MUL",
    "sdiv": "DIV",
    "srem": "REM",
    "and": "AND",
    "or": "OR",
    "xor": "XOR",
    "shl": "SHL",
    "ashr": "SAR",
}


class CodegenError(ValueError):
    """Raised on IR the backend cannot lower."""


class _FunctionCodegen:
    """Per-function emission state."""

    def __init__(self, fn: Function, externals: Dict[str, int], internal_index: Dict[str, int], gcc_style: bool):  # noqa: D107
        self.fn = fn
        self.externals = externals
        self.internal_index = internal_index
        self.gcc = gcc_style
        self.code: List[MachineInstr] = []
        self.slots: Dict[int, int] = {}
        self.temp_slots: Dict[int, int] = {}
        self.frame_words = 0
        self.block_offsets: Dict[BasicBlock, int] = {}
        self.fixups: List[Tuple[int, BasicBlock]] = []  # (code idx, target block)

    # ------------------------------------------------------------- frame
    def _new_slot(self, words: int = 1) -> int:
        slot = self.frame_words
        self.frame_words += words
        return slot

    def _slot_of(self, value: Value) -> int:
        key = id(value)
        if key not in self.slots:
            self.slots[key] = self._new_slot()
        return self.slots[key]

    def _temp_of(self, value: Value) -> int:
        key = id(value)
        if key not in self.temp_slots:
            self.temp_slots[key] = self._new_slot()
        return self.temp_slots[key]

    # ------------------------------------------------------------ emit
    def emit(self, op: str, rd: int = 0, rs: int = 0, imm: int = 0) -> int:
        """Append one instruction; returns its index."""
        self.code.append(MachineInstr(op, rd, rs, imm))
        return len(self.code) - 1

    def _load_operand(self, value: Value, reg: int) -> None:
        """Materialize an operand into a register."""
        if isinstance(value, Constant):
            if not (-(2**31) <= value.value < 2**31):
                raise CodegenError(f"constant {value.value} exceeds imm32")
            self.emit("MOVI", rd=reg, imm=value.value)
        else:
            self.emit("LD", rd=reg, rs=13, imm=self._slot_of(value))
            if self.gcc:
                # gcc-style register shuffle: move through a scratch reg
                self.emit("MOV", rd=11, rs=reg)
                self.emit("MOV", rd=reg, rs=11)

    def _store_result(self, value: Value, reg: int) -> None:
        self.emit("ST", rd=13, rs=reg, imm=self._slot_of(value))
        if self.gcc:
            # gcc-style redundant reload after every store
            self.emit("LD", rd=10, rs=13, imm=self._slot_of(value))

    # ------------------------------------------------------------- body
    def generate(self) -> None:
        """Emit the whole function body."""
        # Pre-size the frame: parameters first.
        enter_idx = self.emit("ENTER", imm=0)  # patched at the end
        if self.gcc:
            # frame canary
            self.emit("MOVI", rd=9, imm=0x5A5A)
            canary_slot = self._new_slot()
            self.emit("ST", rd=13, rs=9, imm=canary_slot)
        for i, arg in enumerate(self.fn.args):
            if i > 5:
                raise CodegenError("more than 6 arguments unsupported")
            self.emit("ST", rd=13, rs=i, imm=self._slot_of(arg))

        for blk in self.fn.blocks:
            self.block_offsets[blk] = len(self.code)
            for instr in blk.instructions:
                if instr.is_terminator:
                    self._emit_phi_copies(blk)
                    self._emit_terminator(instr)
                else:
                    self._emit_instruction(instr)

        for idx, target in self.fixups:
            self.code[idx].imm = self.block_offsets[target]
        self.code[enter_idx].imm = self.frame_words

    def _emit_phi_copies(self, blk: BasicBlock) -> None:
        """Two-phase parallel copies for successor phis."""
        term = blk.terminator
        succ_phis = [
            (succ, phi)
            for succ in term.blocks
            for phi in succ.phis()
        ]
        staged = []
        for succ, phi in succ_phis:
            for val, pred in zip(phi.operands, phi.blocks):
                if pred is blk:
                    self._load_operand(val, 1)
                    self.emit("ST", rd=13, rs=1, imm=self._temp_of(phi))
                    staged.append(phi)
                    break
        for phi in staged:
            self.emit("LD", rd=1, rs=13, imm=self._temp_of(phi))
            self.emit("ST", rd=13, rs=1, imm=self._slot_of(phi))

    def _emit_terminator(self, instr: Instruction) -> None:
        op = instr.opcode
        if op == "br":
            idx = self.emit("JMP")
            self.fixups.append((idx, instr.blocks[0]))
        elif op == "condbr":
            self._load_operand(instr.operands[0], 1)
            self.emit("MOVI", rd=2, imm=0)
            self.emit("CMP", rd=1, rs=2)
            t_idx = self.emit("BNE")
            self.fixups.append((t_idx, instr.blocks[0]))
            f_idx = self.emit("JMP")
            self.fixups.append((f_idx, instr.blocks[1]))
        elif op == "ret":
            if instr.operands:
                self._load_operand(instr.operands[0], 0)
            self.emit("LEAVE")
            self.emit("RET")
        elif op == "unreachable":
            self.emit("HALT")
        else:  # pragma: no cover
            raise CodegenError(f"unknown terminator {op}")

    def _emit_instruction(self, instr: Instruction) -> None:
        op = instr.opcode
        if op == "phi":
            return  # handled on the incoming edges
        if op == "alloca":
            if instr.operands:
                count = instr.operands[0]
                if isinstance(count, Constant):
                    buf = self._new_slot(max(count.value, 1))
                    self.emit("LEA", rd=1, imm=buf)
                else:
                    self._load_operand(count, 1)
                    self.emit("SALLOC", rd=1, rs=1)
                    self._store_result(instr, 1)
                    return
            else:
                buf = self._new_slot()
                self.emit("LEA", rd=1, imm=buf)
            self._store_result(instr, 1)
            return
        if op == "load":
            self._load_operand(instr.operands[0], 1)
            self.emit("LD", rd=2, rs=1, imm=0)
            self._store_result(instr, 2)
            return
        if op == "store":
            self._load_operand(instr.operands[0], 1)
            self._load_operand(instr.operands[1], 2)
            self.emit("ST", rd=2, rs=1, imm=0)
            return
        if op == "gep":
            self._load_operand(instr.operands[0], 1)
            self._load_operand(instr.operands[1], 2)
            self.emit("ADD", rd=1, rs=2)
            self._store_result(instr, 1)
            return
        if op in _BINOP_TO_OP:
            self._load_operand(instr.operands[0], 1)
            self._load_operand(instr.operands[1], 2)
            self.emit(_BINOP_TO_OP[op], rd=1, rs=2)
            self._store_result(instr, 1)
            return
        if op == "icmp":
            self._load_operand(instr.operands[0], 1)
            self._load_operand(instr.operands[1], 2)
            self.emit("CMP", rd=1, rs=2)
            self.emit("MOVI", rd=3, imm=1)
            skip = self.emit(_PRED_TO_BRANCH[instr.extra["pred"]])
            self.emit("MOVI", rd=3, imm=0)
            self.code[skip].imm = len(self.code)
            self._store_result(instr, 3)
            return
        if op in ("zext", "sext", "trunc"):
            self._load_operand(instr.operands[0], 1)
            self._store_result(instr, 1)
            return
        if op == "call":
            callee = instr.extra["callee"]
            # Stage arguments in temps, then load into the arg registers.
            arg_temps = []
            for arg in instr.operands:
                self._load_operand(arg, 1)
                t = self._new_slot()
                self.emit("ST", rd=13, rs=1, imm=t)
                arg_temps.append(t)
            for i, t in enumerate(arg_temps):
                self.emit("LD", rd=i, rs=13, imm=t)
            if callee in self.internal_index:
                self.emit("CALL", imm=self.internal_index[callee])
            else:
                ext = self.externals.setdefault(callee, len(self.externals))
                self.emit("CALLX", rs=len(arg_temps), imm=ext)
            if instr.type != VOID:
                self._store_result(instr, 0)
            return
        raise CodegenError(f"cannot lower opcode {op!r}")


def compile_module(module: Module, style: str = "clang") -> BinaryProgram:
    """Compile every defined function; externals become symbol imports."""
    if style not in ("clang", "gcc"):
        raise CodegenError(f"unknown backend style {style!r}")
    defined = module.defined_functions()
    internal_index = {f.name: i for i, f in enumerate(defined)}
    externals: Dict[str, int] = {}
    all_code: List[MachineInstr] = []
    functions: List[BinaryFunction] = []
    for fn in defined:
        cg = _FunctionCodegen(fn, externals, internal_index, gcc_style=(style == "gcc"))
        cg.generate()
        functions.append(
            BinaryFunction(fn.name, len(all_code), len(cg.code), len(fn.args))
        )
        all_code.extend(cg.code)
    ext_list = [name for name, _ in sorted(externals.items(), key=lambda kv: kv[1])]
    return BinaryProgram(all_code, functions, ext_list, entry="main", compiler=style)
