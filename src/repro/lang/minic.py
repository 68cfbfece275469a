"""MiniC front-end: renderer (AST → C source) and parser (C source → AST).

C has no standard-library sort/min/max for ints, so the renderer emits
``static`` helper functions (``sort_ints``, ``max_i``, ...) whenever the AST
uses those builtins — exactly the "implement it yourself" idiom the paper
observes in C solutions.  The parser reads those helpers back as ordinary
user functions, so the compiled IR contains their real bodies.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.lang import ast
from repro.lang.lexer import tokenize
from repro.lang.parser_base import ParserBase, RendererBase

_HELPER_SOURCES = {
    "max": (
        "max_i",
        "static int max_i(int a, int b) {\n"
        "    if (a > b) { return a; }\n"
        "    return b;\n"
        "}\n",
    ),
    "min": (
        "min_i",
        "static int min_i(int a, int b) {\n"
        "    if (a < b) { return a; }\n"
        "    return b;\n"
        "}\n",
    ),
    "abs": (
        "abs_i",
        "static int abs_i(int a) {\n"
        "    if (a < 0) { return -a; }\n"
        "    return a;\n"
        "}\n",
    ),
    "sort": (
        "sort_ints",
        "static void sort_ints(int* a, int n) {\n"
        "    for (int i = 0; i < n; i++) {\n"
        "        for (int j = 0; j < n - 1; j++) {\n"
        "            if (a[j] > a[j + 1]) {\n"
        "                int t = a[j];\n"
        "                a[j] = a[j + 1];\n"
        "                a[j + 1] = t;\n"
        "            }\n"
        "        }\n"
        "    }\n"
        "}\n",
    ),
}

class MiniCRenderer(RendererBase):
    """Render a language-neutral AST as compilable MiniC source text."""

    language = "c"
    dialect = "MiniC"
    ARRAY_TYPE = "int*"
    SCALAR_TYPES = {"int": "int", "long": "long", "bool": "int", "void": "void"}
    BOOL_LITERALS = ("0", "1")
    PRINT_FORMAT = 'printf("%d\\n", {});'

    def __init__(self) -> None:  # noqa: D107
        self._used_helpers: Set[str] = set()

    def call(self, e: ast.Call) -> str:
        """Builtins become calls to the ``static`` helpers this unit emits."""
        if e.name in _HELPER_SOURCES:
            self._used_helpers.add(e.name)
            return f"{_HELPER_SOURCES[e.name][0]}({self.expr_list(e.args)})"
        if e.name == "len":
            raise ValueError(f"{self.dialect} has no len(); generator must pass lengths")
        return super().call(e)

    def decl_str(self, s: ast.VarDecl) -> str:
        """Arrays are declared ``int a[n]`` or ``int a[] = {..}``."""
        if isinstance(s.type, ast.ArrayType):
            if isinstance(s.init, ast.NewArray):
                return f"int {s.name}[{self.expr(s.init.size)}]"
            if isinstance(s.init, ast.ArrayLit):
                return f"int {s.name}[] = {self.expr(s.init)}"
            if s.init is None:
                raise ValueError("array declaration needs an initializer")
        return super().decl_str(s)  # scalars, and ``int* p = q`` aliases

    def render(self, program: ast.Program) -> str:
        """Render the full translation unit, including any needed helpers."""
        self._used_helpers = set()
        return super().render(program)

    def translation_unit(self, functions: str) -> str:
        """``stdio.h``, then the helpers the functions called."""
        helper_text = "".join(
            _HELPER_SOURCES[h][1] for h in sorted(self._used_helpers)
        )
        return "#include <stdio.h>\n\n" + helper_text + "\n" + functions + "\n"


class MiniCParser(ParserBase):
    """Parser for MiniC (also the base for the MiniCpp parser)."""

    language = "c"
    TYPE_KEYWORDS = ("int", "long", "bool", "void")
    DECL_KEYWORDS = ("int", "long", "bool")

    def parse_type(self):
        """Parse ``int`` / ``long`` / ``void`` with optional ``*``."""
        tok = self.advance()
        if tok.value not in self.TYPE_KEYWORDS:
            raise self.error(tok.line, f"expected type, got {tok.value!r}")
        scalar = ast.ScalarType("int" if tok.value == "bool" else tok.value)
        if self.accept("*"):
            return ast.ArrayType(scalar)
        return scalar

    def parse_decl(self) -> ast.Stmt:
        """``int x = e`` | ``int a[e]`` | ``int a[] = {..}`` | ``int* p = e``."""
        t = self.parse_type()
        name = self.expect_kind("id").value
        if isinstance(t, ast.ScalarType) and self.accept("["):
            if self.accept("]"):
                self.expect("=")
                return ast.VarDecl(name, ast.ArrayType(t), self.parse_brace_list())
            size = self.parse_expr()
            self.expect("]")
            return ast.VarDecl(name, ast.ArrayType(t), ast.NewArray(t, size))
        init = None
        if self.accept("="):
            init = self.parse_expr()
        return ast.VarDecl(name, t, init)

    def parse_print_hook(self) -> Optional[ast.Stmt]:
        """``printf("%d\\n", expr);`` → Print."""
        if self.peek().kind == "id" and self.peek().value == "printf":
            self.advance()
            self.expect("(")
            self.expect_kind("str")
            self.expect(",")
            value = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return ast.Print(value)
        return None

    # ----------------------------------------------------------- program
    def parse_param(self) -> ast.Param:
        """``type name``, also in the ``int a[]`` spelling."""
        t = self.parse_type()
        name = self.expect_kind("id").value
        if self.accept("["):  # `int a[]` spelling
            self.expect("]")
            if isinstance(t, ast.ScalarType):
                t = ast.ArrayType(t)
        return ast.Param(name, t)

    def parse_program(self) -> ast.Program:
        """Parse a full translation unit of ``[static]`` functions."""
        functions: List[ast.Function] = []
        while self.peek().kind != "eof":
            self.accept("static")
            functions.append(self.parse_function())
        # Helper bodies keep the user's name when re-parsed; the Program is
        # the real compilation unit.
        return ast.Program(functions, language=self.language)


def parse_minic(source: str) -> ast.Program:
    """Parse MiniC source text into a :class:`~repro.lang.ast.Program`."""
    return MiniCParser(tokenize(source)).parse_program()
