"""The IR type system: i1/i32/i64 integers, typed pointers, void.

Mirrors the slice of LLVM's type system the reproduction needs.  Types are
value objects — compare them with ``==`` (the module-level singletons
``I1``/``I32``/``I64``/``VOID`` are shared, but builders also make fresh
equal instances).

A type's printed spelling is :attr:`IRType.text`, computed once per
instance and kept in the instance ``__dict__``: the printer and the graph
builder spell the same few types hundreds of thousands of times.  The
cached text is not a dataclass field, so it never enters ``==``,
``hash`` or ``repr``, and the spelling itself never changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class IRType:
    """Base marker for IR types."""

    @cached_property
    def text(self) -> str:
        """The printed spelling (``i32``, ``i64*``, ``void``), cached per instance."""
        return self._spell()

    def _spell(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError

    def __str__(self) -> str:
        return self.text


@dataclass(frozen=True)
class IntType(IRType):
    """Fixed-width integer type (i1, i32, i64)."""

    bits: int

    def _spell(self) -> str:
        return f"i{self.bits}"


@dataclass(frozen=True)
class PtrType(IRType):
    """Pointer to an element type (``i32*``)."""

    element: IRType

    def _spell(self) -> str:
        return f"{self.element.text}*"


@dataclass(frozen=True)
class VoidType(IRType):
    """The void type (function returns only)."""

    def _spell(self) -> str:
        return "void"


@dataclass(frozen=True)
class LabelType(IRType):
    """The type of basic-block labels (branch targets)."""

    def _spell(self) -> str:
        return "label"


I1 = IntType(1)
I32 = IntType(32)
I64 = IntType(64)
VOID = VoidType()
LABEL = LabelType()
PTR_I32 = PtrType(I32)
PTR_I64 = PtrType(I64)
