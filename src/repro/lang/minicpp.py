"""MiniCpp front-end: renderer (AST → C++ source) and parser (C++ → AST).

C++ solutions lean on the standard library: ``std::sort``, ``std::max``,
``std::min``, ``std::abs`` and ``cout``.  The parser canonicalizes those to
builtin :class:`~repro.lang.ast.Call` nodes; the Clang-like lowerer then
*instantiates template bodies into the module* (mangled ``_ZSt...``
functions), reproducing the paper's observation that "templates are also
compiled as a part of LLVM-IR".
"""

from __future__ import annotations

from typing import List, Optional

from repro.lang import ast
from repro.lang.lexer import strip_using_namespace, tokenize
from repro.lang.minic import MiniCParser, MiniCRenderer

STD_BUILTINS = {"sort", "max", "min", "abs", "swap"}


class MiniCppRenderer(MiniCRenderer):
    """Render an AST as C++ source using standard-library idioms."""

    language = "cpp"
    dialect = "MiniCpp"
    PRINT_FORMAT = "std::cout << {} << std::endl;"

    def call(self, e: ast.Call) -> str:
        """Builtins become ``std::`` calls."""
        if e.name == "sort":
            if len(e.args) != 2:
                raise ValueError("sort(array, n) expected")
            a, n = self.expr(e.args[0]), self.expr(e.args[1])
            return f"std::sort({a}, {a} + {n})"
        if e.name in ("max", "min", "abs"):
            return f"std::{e.name}({self.expr_list(e.args)})"
        return super().call(e)

    def translation_unit(self, functions: str) -> str:
        """The C++ headers, then the functions."""
        headers = "#include <iostream>\n#include <algorithm>\n#include <cstdlib>\n"
        return headers + "\n" + functions + "\n"


class MiniCppParser(MiniCParser):
    """Parser for MiniCpp: MiniC grammar plus ``std::`` calls and ``cout``."""

    language = "cpp"

    def parse_primary_hook(self) -> Optional[ast.Expr]:
        """Handle ``std::name(args)`` calls."""
        tok = self.peek()
        if tok.kind == "id" and tok.value == "std" and self.peek(1).value == "::":
            self.advance()  # std
            self.advance()  # ::
            name_tok = self.expect_kind("id")
            args = self.parse_call_args()
            return self._canonical_std_call(name_tok.value, args, name_tok.line)
        if tok.kind == "id" and tok.value in STD_BUILTINS and self.peek(1).value == "(":
            # `using namespace std;` style unqualified call
            self.advance()
            args = self.parse_call_args()
            return self._canonical_std_call(tok.value, args, tok.line)
        return None

    def _canonical_std_call(self, name: str, args: List[ast.Expr], line: int) -> ast.Expr:
        if name == "sort":
            if len(args) != 2:
                raise self.error(line, "std::sort expects 2 iterators")
            first, last = args
            if (
                isinstance(last, ast.BinOp)
                and last.op == "+"
                and isinstance(last.left, ast.Var)
                and isinstance(first, ast.Var)
                and last.left.name == first.name
            ):
                return ast.Call("sort", [first, last.right])
            raise self.error(line, "std::sort must be called as sort(a, a + n)")
        if name in ("max", "min", "abs", "swap"):
            return ast.Call(name, args)
        raise self.error(line, f"unknown std:: function {name!r}")

    def parse_print_hook(self) -> Optional[ast.Stmt]:
        """``cout << expr << endl;`` (optionally ``std::`` qualified)."""
        tok = self.peek()
        is_cout = tok.kind == "id" and tok.value == "cout"
        is_std_cout = (
            tok.kind == "id"
            and tok.value == "std"
            and self.peek(1).value == "::"
            and self.peek(2).value == "cout"
        )
        if not (is_cout or is_std_cout):
            return None
        if is_std_cout:
            self.advance()
            self.advance()
        self.advance()  # cout
        self.expect("<<")
        # Parse at precedence above `<<` so the stream operator is not
        # swallowed as a shift; renderer parenthesizes compound values.
        value = self.parse_expr(9)
        if self.accept("<<"):
            # swallow `endl` / `std::endl` / "\n"
            if self.peek().value == "std":
                self.advance()
                self.expect("::")
                self.expect("endl")
            elif self.peek().kind == "str":
                self.advance()
            else:
                self.expect("endl")
        self.expect(";")
        return ast.Print(value)


def parse_minicpp(source: str) -> ast.Program:
    """Parse MiniCpp source text into a Program."""
    tokens = strip_using_namespace(tokenize(source))
    return MiniCppParser(tokens).parse_program()
