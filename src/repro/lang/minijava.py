"""MiniJava front-end: renderer (AST → Java source) and parser (Java → AST).

Java solutions use ``a.length``, ``new int[n]``, ``Math.max/min/abs``,
``Arrays.sort`` and ``System.out.println``.  The parser canonicalizes these
to builtin calls; the JLang-like lowerer keeps library calls *external*
(no body in the module) and adds runtime scaffolding (bounds checks, array
headers), reproducing the Java-vs-C++ IR divergence the paper analyzes.
"""

from __future__ import annotations

from typing import List, Optional

from repro.lang import ast
from repro.lang.lexer import tokenize
from repro.lang.parser_base import ParserBase, RendererBase


class MiniJavaRenderer(RendererBase):
    """Render a language-neutral AST as Java source (a ``Main`` class)."""

    language = "java"
    dialect = "MiniJava"
    ARRAY_TYPE = "int[]"
    SCALAR_TYPES = {"int": "int", "long": "long", "bool": "boolean", "void": "void"}
    BOOL_LITERALS = ("false", "true")
    PRINT_FORMAT = "System.out.println({});"
    FUNCTION_INDENT = 1

    def call(self, e: ast.Call) -> str:
        """Builtins become ``.length``, ``Math.`` and ``Arrays.sort``."""
        if e.name == "len":
            return f"{self.expr(e.args[0])}.length"
        if e.name in ("max", "min", "abs"):
            return f"Math.{e.name}({self.expr_list(e.args)})"
        if e.name == "sort":
            if len(e.args) == 2:
                return f"Arrays.sort({self.expr(e.args[0])}, 0, {self.expr(e.args[1])})"
            return f"Arrays.sort({self.expr(e.args[0])})"
        return super().call(e)

    def new_array(self, e: ast.NewArray) -> str:
        """``new int[n]``."""
        return f"new int[{self.expr(e.size)}]"

    def signature(self, f: ast.Function) -> str:
        """``static`` methods; ``main`` takes ``String[] args``."""
        if f.name == "main":
            return "public static void main(String[] args)"
        return "static " + super().signature(f)

    def translation_unit(self, functions: str) -> str:
        """The ``Main`` class holding every method."""
        return "import java.util.Arrays;\n\npublic class Main {\n" + functions + "\n}\n"


class MiniJavaParser(ParserBase):
    """Parser for the MiniJava subset."""

    language = "java"
    DECL_KEYWORDS = ("int", "long", "boolean")

    def parse_type(self):
        """``int`` / ``long`` / ``boolean`` / ``void`` with optional ``[]``."""
        tok = self.advance()
        name = {"boolean": "bool"}.get(tok.value, tok.value)
        if name not in ("int", "long", "bool", "void"):
            raise self.error(tok.line, f"expected type, got {tok.value!r}")
        scalar = ast.ScalarType(name)
        if self.accept("["):
            self.expect("]")
            return ast.ArrayType(scalar)
        return scalar

    def parse_decl(self) -> ast.Stmt:
        """``int x = e`` | ``int[] a = new int[n]`` | ``int[] a = {..}``."""
        t = self.parse_type()
        name = self.expect_kind("id").value
        init = None
        if self.accept("="):
            init = self.parse_brace_list() if self.check("{") else self.parse_expr()
        return ast.VarDecl(name, t, init)

    def parse_primary_hook(self) -> Optional[ast.Expr]:
        """``new int[n]``, ``Math.fn(args)``, ``Arrays.sort(...)``."""
        tok = self.peek()
        if tok.kind == "kw" and tok.value == "new":
            self.advance()
            elem_tok = self.advance()
            if elem_tok.value not in ("int", "long"):
                raise self.error(tok.line, f"new {elem_tok.value}[] unsupported")
            self.expect("[")
            size = self.parse_expr()
            self.expect("]")
            return ast.NewArray(ast.ScalarType(elem_tok.value), size)
        if tok.kind == "id" and tok.value in ("Math", "Arrays") and self.peek(1).value == ".":
            namespace = tok.value
            self.advance()
            self.advance()
            method = self.expect_kind("id").value
            args = self.parse_call_args()
            return self._canonical_library_call(namespace, method, args, tok.line)
        return None

    def _canonical_library_call(
        self, namespace: str, method: str, args: List[ast.Expr], line: int
    ) -> ast.Expr:
        if namespace == "Math" and method in ("max", "min", "abs"):
            return ast.Call(method, args)
        if namespace == "Arrays" and method == "sort":
            if len(args) == 1:
                return ast.Call("sort", [args[0], ast.Call("len", [args[0]])])
            if len(args) == 3:
                # Arrays.sort(a, 0, n) — from-index must be 0 in our subset
                return ast.Call("sort", [args[0], args[2]])
            raise self.error(line, "unsupported Arrays.sort arity")
        raise self.error(line, f"unknown library call {namespace}.{method}")

    def parse_postfix_hook(self, expr: ast.Expr) -> Optional[ast.Expr]:
        """``expr.length`` → len(expr)."""
        if self.peek().value == "." and self.peek(1).value == "length":
            self.advance()
            self.advance()
            return ast.Call("len", [expr])
        return None

    def parse_print_hook(self) -> Optional[ast.Stmt]:
        """``System.out.println(expr);`` → Print."""
        tok = self.peek()
        if (
            tok.kind == "id"
            and tok.value == "System"
            and self.peek(1).value == "."
            and self.peek(2).value == "out"
        ):
            self.advance()
            self.expect(".")
            self.expect("out")
            self.expect(".")
            self.expect("println")
            self.expect("(")
            value = self.parse_expr()
            self.expect(")")
            self.expect(";")
            return ast.Print(value)
        return None

    # ----------------------------------------------------------- program
    def parse_param(self) -> ast.Param:
        """``type name``; ``main``'s ``String[] args`` becomes a placeholder."""
        if self.peek().kind == "id" and self.peek().value == "String":
            # `String[] args` on main — consumed and ignored
            self.advance()
            self.expect("[")
            self.expect("]")
            self.expect_kind("id")
            return ast.Param("__args", ast.ScalarType("void"))
        t = self.parse_type()
        name = self.expect_kind("id").value
        return ast.Param(name, t)

    def parse_program(self) -> ast.Program:
        """Parse ``[import ...;]* public class Main { [public] static methods }``."""
        while self.peek().kind == "id" and self.peek().value == "import":
            while not self.accept(";"):
                self.advance()
        self.accept("public")
        self.expect("class")
        self.expect_kind("id")
        self.expect("{")
        functions: List[ast.Function] = []
        while not self.check("}"):
            self.accept("public")
            self.expect("static")
            f = self.parse_function()
            f.params = [p for p in f.params if p.name != "__args"]
            functions.append(f)
        self.expect("}")
        return ast.Program(functions, language="java")


def parse_minijava(source: str) -> ast.Program:
    """Parse MiniJava source text into a Program."""
    return MiniJavaParser(tokenize(source)).parse_program()
