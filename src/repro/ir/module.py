"""IR object model: Module → Function → BasicBlock → Instruction.

A compact SSA-style IR with the instruction families the paper's pipeline
relies on (alloca/load/store/binary ops/icmp/br/phi/call/ret/gep/casts).
Instructions are :class:`Value` objects that other instructions reference
directly as operands; the printer assigns ``%N`` names on demand.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.ir.types import I1, I32, I64, LABEL, VOID, IRType, PtrType

BINARY_OPS = ("add", "sub", "mul", "sdiv", "srem", "and", "or", "xor", "shl", "ashr")
ICMP_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge")
TERMINATORS = ("br", "condbr", "ret", "unreachable")


class Value:
    """Anything that can be an operand: constants, arguments, instructions."""

    type: IRType

    def short(self) -> str:  # pragma: no cover - overridden
        """Operand spelling (``%3``, ``42``, ``%x``)."""
        raise NotImplementedError


class Constant(Value):
    """Integer constant of a given type."""

    __slots__ = ("type", "value")

    def __init__(self, value: int, type: IRType = I32):  # noqa: D107
        self.value = int(value)
        self.type = type

    def short(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"Constant({self.value}: {self.type})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Constant)
            and other.value == self.value
            and other.type == self.type
        )

    def __hash__(self) -> int:
        return hash(("const", self.value, str(self.type)))


class Argument(Value):
    """A function parameter."""

    __slots__ = ("type", "name", "index")

    def __init__(self, name: str, type: IRType, index: int):  # noqa: D107
        self.name = name
        self.type = type
        self.index = index

    def short(self) -> str:
        return f"%{self.name}"

    def __repr__(self) -> str:
        return f"Argument(%{self.name}: {self.type})"


class Instruction(Value):
    """A single IR operation.

    ``opcode`` selects the family; ``operands`` are :class:`Value`s.
    Control-flow operands (branch targets) live in ``blocks``.  ``extra``
    carries opcode-specific data (icmp predicate, callee name, phi incoming
    blocks).
    """

    __slots__ = ("opcode", "operands", "blocks", "type", "extra", "parent", "uid")

    # One shared counter object, never rebound: rebinding a class attribute
    # on every construction invalidates the type's attribute caches, which
    # slowed every instruction attribute access.
    _uids = itertools.count()

    def __init__(
        self,
        opcode: str,
        operands: Sequence[Value] = (),
        type: IRType = VOID,
        blocks: Sequence["BasicBlock"] = (),
        extra: Optional[dict] = None,
    ):  # noqa: D107
        self.opcode = opcode
        self.operands: List[Value] = list(operands)
        self.blocks: List[BasicBlock] = list(blocks)
        self.type = type
        self.extra = extra or {}
        self.parent: Optional[BasicBlock] = None
        self.uid = next(Instruction._uids)

    # ------------------------------------------------------------- queries
    @property
    def is_terminator(self) -> bool:
        """True for br/condbr/ret/unreachable."""
        return self.opcode in TERMINATORS

    def short(self) -> str:
        return f"%{self.uid}"

    def replace_operand(self, old: Value, new: Value) -> None:
        """Substitute every occurrence of ``old`` in the operand list."""
        self.operands = [new if op is old else op for op in self.operands]

    def __repr__(self) -> str:
        return f"Instruction({self.opcode} -> {self.type}, uid={self.uid})"


class BasicBlock:
    """A label plus a straight-line instruction sequence ending in a terminator."""

    __slots__ = ("label", "instructions", "parent")

    def __init__(self, label: str):  # noqa: D107
        self.label = label
        self.instructions: List[Instruction] = []
        self.parent: Optional["Function"] = None

    def append(self, instr: Instruction) -> Instruction:
        """Add an instruction at the end."""
        instr.parent = self
        self.instructions.append(instr)
        return instr

    @property
    def terminator(self) -> Optional[Instruction]:
        """The final instruction if it is a terminator."""
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def successors(self) -> List["BasicBlock"]:
        """Blocks this one can branch to."""
        term = self.terminator
        return list(term.blocks) if term is not None else []

    def phis(self) -> List[Instruction]:
        """Leading phi instructions."""
        out = []
        for ins in self.instructions:
            if ins.opcode != "phi":
                break
            out.append(ins)
        return out

    def __repr__(self) -> str:
        return f"BasicBlock({self.label}, {len(self.instructions)} instrs)"


class Function:
    """A function: signature plus a CFG of basic blocks.

    ``is_declaration`` marks externals (Java runtime/library calls keep no
    body in the module — the JLang-vs-Clang asymmetry the paper leans on).
    """

    def __init__(
        self,
        name: str,
        arg_types: Sequence[IRType],
        arg_names: Sequence[str],
        return_type: IRType,
        is_declaration: bool = False,
    ):  # noqa: D107
        self.name = name
        self.args = [Argument(n, t, i) for i, (n, t) in enumerate(zip(arg_names, arg_types))]
        self.return_type = return_type
        self.blocks: List[BasicBlock] = []
        self.is_declaration = is_declaration
        self._label_counter = 0

    def new_block(self, hint: str = "bb") -> BasicBlock:
        """Create and append a fresh labelled block."""
        label = f"{hint}{self._label_counter}"
        self._label_counter += 1
        blk = BasicBlock(label)
        blk.parent = self
        self.blocks.append(blk)
        return blk

    @property
    def entry(self) -> BasicBlock:
        """The entry block."""
        return self.blocks[0]

    def instructions(self) -> Iterator[Instruction]:
        """All instructions in block order."""
        for blk in self.blocks:
            yield from blk.instructions

    def predecessors(self) -> Dict[BasicBlock, List[BasicBlock]]:
        """Map each block to the blocks that branch to it."""
        preds: Dict[BasicBlock, List[BasicBlock]] = {b: [] for b in self.blocks}
        for blk in self.blocks:
            for succ in blk.successors():
                preds[succ].append(blk)
        return preds

    def reachable_blocks(self) -> Set[BasicBlock]:
        """Blocks reachable from the entry."""
        seen: Set[BasicBlock] = set()
        stack = [self.entry] if self.blocks else []
        while stack:
            blk = stack.pop()
            if blk in seen:
                continue
            seen.add(blk)
            stack.extend(blk.successors())
        return seen

    def size(self) -> int:
        """Total instruction count."""
        return sum(len(b.instructions) for b in self.blocks)

    def __repr__(self) -> str:
        kind = "declare" if self.is_declaration else "define"
        return f"Function({kind} {self.name}, {len(self.blocks)} blocks)"


class Module:
    """A translation unit: an ordered collection of functions plus metadata.

    ``source_language`` records the producing front-end ("c", "cpp", "java"
    or "decompiler"), which downstream statistics use.
    """

    def __init__(self, name: str = "module", source_language: str = ""):  # noqa: D107
        self.name = name
        self.source_language = source_language
        self.functions: List[Function] = []

    def add(self, fn: Function) -> Function:
        """Append a function (no duplicate names)."""
        if any(f.name == fn.name for f in self.functions):
            raise ValueError(f"duplicate function {fn.name!r}")
        self.functions.append(fn)
        return fn

    def get(self, name: str) -> Function:
        """Look up a function by name."""
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"no function {name!r} in module {self.name}")

    def has(self, name: str) -> bool:
        """True if a function with this name exists."""
        return any(f.name == name for f in self.functions)

    def defined_functions(self) -> List[Function]:
        """Functions with bodies (excludes declarations)."""
        return [f for f in self.functions if not f.is_declaration]

    def size(self) -> int:
        """Total instruction count over defined functions."""
        return sum(f.size() for f in self.defined_functions())

    def __repr__(self) -> str:
        return f"Module({self.name}, {len(self.functions)} functions)"
