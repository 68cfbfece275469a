"""Language-neutral abstract syntax shared by MiniC, MiniCpp and MiniJava.

The three front-ends parse their own surface syntax into these nodes; the
IR lowerers consume them.  The type system is deliberately small — ``int``
(32-bit), ``long`` (64-bit), ``bool`` and 1-D ``int`` arrays — which covers
the arithmetic/array/loop-heavy programs of competitive-programming corpora
like CLCDSA and POJ-104.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


# ----------------------------------------------------------------- types
@dataclass(frozen=True)
class ScalarType:
    """A scalar type: ``int`` (i32), ``long`` (i64), or ``bool`` (i1)."""

    name: str  # "int" | "long" | "bool" | "void"

    def __post_init__(self):
        if self.name not in ("int", "long", "bool", "void"):
            raise ValueError(f"unknown scalar type {self.name!r}")


@dataclass(frozen=True)
class ArrayType:
    """A 1-D array of a scalar element type."""

    element: ScalarType


INT = ScalarType("int")
LONG = ScalarType("long")
BOOL = ScalarType("bool")
VOID = ScalarType("void")
INT_ARRAY = ArrayType(INT)

Type = object  # ScalarType | ArrayType


# ----------------------------------------------------------- expressions
class Expr:
    """Base class for expression nodes."""


@dataclass
class IntLit(Expr):
    """Integer literal."""

    value: int


@dataclass
class BoolLit(Expr):
    """Boolean literal."""

    value: bool


@dataclass
class Var(Expr):
    """Variable reference by name."""

    name: str


@dataclass
class BinOp(Expr):
    """Binary operation.

    ``op`` is one of ``+ - * / % < <= > >= == != && || & | ^ << >>``.
    """

    op: str
    left: Expr
    right: Expr


@dataclass
class UnaryOp(Expr):
    """Unary operation: ``-`` (negate) or ``!`` (logical not)."""

    op: str
    operand: Expr


@dataclass
class Call(Expr):
    """Function call, either user-defined or a builtin.

    Builtin names are canonicalized by the parsers: ``len`` (array length),
    ``min``, ``max``, ``abs``, ``sort`` (in-place ascending sort),
    ``read_int`` (input).
    """

    name: str
    args: List[Expr] = field(default_factory=list)


@dataclass
class Index(Expr):
    """Array subscript ``base[index]``."""

    base: Expr
    index: Expr


@dataclass
class NewArray(Expr):
    """Array allocation of ``size`` elements (``new int[n]`` / ``int a[n]``)."""

    element: ScalarType
    size: Expr


@dataclass
class ArrayLit(Expr):
    """Brace-initialized array literal ``{1, 2, 3}``."""

    elements: List[Expr] = field(default_factory=list)


# ------------------------------------------------------------ statements
class Stmt:
    """Base class for statement nodes."""


@dataclass
class Block(Stmt):
    """Braced statement sequence."""

    statements: List[Stmt] = field(default_factory=list)


@dataclass
class VarDecl(Stmt):
    """Variable declaration with optional initializer."""

    name: str
    type: Type
    init: Optional[Expr] = None


@dataclass
class Assign(Stmt):
    """Assignment to a variable or array element."""

    target: Expr  # Var or Index
    value: Expr


@dataclass
class If(Stmt):
    """Conditional with optional else branch."""

    cond: Expr
    then: Block
    otherwise: Optional[Block] = None


@dataclass
class While(Stmt):
    """While loop."""

    cond: Expr
    body: Block


@dataclass
class For(Stmt):
    """C-style for loop: ``for (init; cond; step) body``.

    ``init`` and ``step`` are single statements (or ``None``).
    """

    init: Optional[Stmt]
    cond: Optional[Expr]
    step: Optional[Stmt]
    body: Block


@dataclass
class Return(Stmt):
    """Return with optional value."""

    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    """Break out of the innermost loop."""


@dataclass
class Continue(Stmt):
    """Continue the innermost loop."""


@dataclass
class ExprStmt(Stmt):
    """Expression evaluated for effect (e.g. a call)."""

    expr: Expr


@dataclass
class Print(Stmt):
    """Output an integer value (printf / cout / System.out.println)."""

    value: Expr


# ------------------------------------------------------------- top level
@dataclass
class Param:
    """Function parameter."""

    name: str
    type: Type


@dataclass
class Function:
    """Function definition."""

    name: str
    params: List[Param]
    return_type: Type
    body: Block


@dataclass
class Program:
    """A whole translation unit: an ordered list of functions.

    By convention the entry point is named ``main`` and takes no parameters.
    """

    functions: List[Function] = field(default_factory=list)
    language: str = ""

    def function(self, name: str) -> Function:
        """Look up a function by name."""
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"no function named {name!r}")
