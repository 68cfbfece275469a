"""The virtual instruction-set architecture targeted by the code generators.

A RISC-ish 64-bit machine: 12 general registers, a stack pointer, a flags
register set by ``CMP``.  Every instruction encodes to exactly 8 bytes
(opcode, rd, rs, pad, imm32), so binaries are trivially disassemblable —
the decompiler's job is CFG/type recovery, not variable-length decoding.

Calling convention: arguments in r0..r5, return value in r0.  ``CALL``
targets an internal function index; ``CALLX`` an external-symbol index.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List

NUM_REGS = 12  # r0..r11
WORD = 8  # bytes per machine word
#: The fixed 8-byte instruction format: opcode, rd, rs, pad, imm32.
INSTR_FORMAT = struct.Struct("<BBBbi")

# opcode table
OPCODES = [
    "HALT",  # stop the machine
    "MOVI",  # rd <- imm32
    "MOV",  # rd <- rs
    "ADD",  # rd <- rd + rs
    "SUB",
    "MUL",
    "DIV",  # signed, truncating
    "REM",
    "AND",
    "OR",
    "XOR",
    "SHL",
    "SAR",
    "CMP",  # flags <- compare(rd, rs)
    "BEQ",  # branch to imm (code offset, in instructions) when flag
    "BNE",
    "BLT",
    "BLE",
    "BGT",
    "BGE",
    "JMP",  # unconditional branch to imm
    "CALL",  # call internal function #imm
    "CALLX",  # call external symbol #imm (arity in rs)
    "RET",
    "LD",  # rd <- mem[rs + imm]  (imm in words)
    "ST",  # mem[rd + imm] <- rs
    "LEA",  # rd <- sp + imm      (stack-slot address, imm in words)
    "ENTER",  # allocate imm words of frame
    "LEAVE",  # release the frame
    "SALLOC",  # rd <- allocate rs words on the stack (dynamic arrays)
]
OPCODE_INDEX = {name: i for i, name in enumerate(OPCODES)}


class DecompileError(ValueError):
    """Raised on malformed binaries (by the object-file parser and the lifter)."""


@dataclass
class MachineInstr:
    """One decoded instruction."""

    op: str
    rd: int = 0
    rs: int = 0
    imm: int = 0

    def encode(self) -> bytes:
        """Pack to the fixed 8-byte format."""
        return INSTR_FORMAT.pack(OPCODE_INDEX[self.op], self.rd, self.rs, 0, self.imm)

    @staticmethod
    def decode(raw: bytes) -> "MachineInstr":
        """Unpack from 8 bytes."""
        opcode, rd, rs, _, imm = INSTR_FORMAT.unpack(raw)
        if opcode >= len(OPCODES):
            raise ValueError(f"bad opcode byte {opcode}")
        return MachineInstr(OPCODES[opcode], rd, rs, imm)

    def __str__(self) -> str:
        return f"{self.op.lower():6s} rd={self.rd} rs={self.rs} imm={self.imm}"


@dataclass
class BinaryFunction:
    """A function inside a binary: symbol name plus its instruction range."""

    name: str
    start: int  # index into the flat instruction list
    length: int
    num_args: int


@dataclass
class BinaryProgram:
    """A fully linked executable for the virtual machine."""

    instructions: List[MachineInstr]
    functions: List[BinaryFunction]
    externals: List[str]
    entry: str = "main"
    compiler: str = "clang"  # which backend produced it

    def function(self, name: str) -> BinaryFunction:
        """Look up a function symbol."""
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"no symbol {name!r}")

    def encode(self) -> bytes:
        """Serialize to an object-file byte string."""
        header = struct.pack("<4sI", b"RVMB", len(self.instructions))
        parts = [header]
        parts.append(struct.pack("<I", len(self.functions)))
        for f in self.functions:
            name_b = f.name.encode()
            parts.append(struct.pack("<HIII", len(name_b), f.start, f.length, f.num_args))
            parts.append(name_b)
        parts.append(struct.pack("<I", len(self.externals)))
        for name in self.externals:
            nb = name.encode()
            parts.append(struct.pack("<H", len(nb)))
            parts.append(nb)
        ent = self.entry.encode()
        parts.append(struct.pack("<H", len(ent)))
        parts.append(ent)
        comp = self.compiler.encode()
        parts.append(struct.pack("<H", len(comp)))
        parts.append(comp)
        for instr in self.instructions:
            parts.append(instr.encode())
        return b"".join(parts)

    @staticmethod
    def decode(raw: bytes) -> "BinaryProgram":
        """Parse an object file back into a program.

        Raises :class:`DecompileError` on anything malformed: a bad magic,
        a truncated header, an instruction stream that is not exactly the
        declared length, or a bad opcode byte.
        """
        if raw[:4] != b"RVMB":
            raise DecompileError("not a RVMB binary")
        try:
            (n_instr,) = struct.unpack_from("<I", raw, 4)
            off = 8
            (n_funcs,) = struct.unpack_from("<I", raw, off)
            off += 4
            functions = []
            for _ in range(n_funcs):
                name_len, start, length, num_args = struct.unpack_from("<HIII", raw, off)
                off += 14
                name = raw[off : off + name_len].decode()
                off += name_len
                functions.append(BinaryFunction(name, start, length, num_args))
            (n_ext,) = struct.unpack_from("<I", raw, off)
            off += 4
            externals = []
            for _ in range(n_ext):
                (nl,) = struct.unpack_from("<H", raw, off)
                off += 2
                externals.append(raw[off : off + nl].decode())
                off += nl
            (el,) = struct.unpack_from("<H", raw, off)
            off += 2
            entry = raw[off : off + el].decode()
            off += el
            (cl,) = struct.unpack_from("<H", raw, off)
            off += 2
            compiler = raw[off : off + cl].decode()
            off += cl
        except (struct.error, UnicodeDecodeError) as exc:
            raise DecompileError(f"truncated or malformed binary header: {exc}") from exc
        if len(raw) - off != n_instr * INSTR_FORMAT.size:
            raise DecompileError(
                f"instruction stream is {len(raw) - off} bytes, "
                f"header declares {n_instr} instructions"
            )
        instructions = []
        n_ops = len(OPCODES)
        for opcode, rd, rs, _, imm in INSTR_FORMAT.iter_unpack(memoryview(raw)[off:]):
            if opcode >= n_ops:
                raise DecompileError(f"bad opcode byte {opcode}")
            instructions.append(MachineInstr(OPCODES[opcode], rd, rs, imm))
        return BinaryProgram(instructions, functions, externals, entry, compiler)

    def size_bytes(self) -> int:
        """Encoded size, used by the RQ3 binary-size statistics."""
        return len(self.encode())
