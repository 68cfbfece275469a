"""Front-end core shared by the three mini languages: renderer and parser.

:class:`RendererBase` spells the statement and expression forms the
languages write alike; :class:`ParserBase` reads them back.  Expression
parsing is precedence-climbing over the shared operator table; statement
parsing covers the common structured subset (declarations, assignment with
``+=``-style sugar and ``++``/``--``, if/else, while, for, break/continue,
return, calls), brace-list initializers and ``type name(params) { body }``
functions.  Language-specific syntax — type spellings, array syntax,
builtin namespaces (``std::``, ``Math.``, ``System.out``), the print
statement and the translation-unit wrapper — is supplied by subclass hooks.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, TypeVar

from repro.lang import ast
from repro.lang.lexer import Token


class ParseError(SyntaxError):
    """Raised when a token stream does not match the grammar."""


# precedence levels, lowest binds loosest
BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    "<=": 7,
    ">": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}

AUG_ASSIGN = {"+=": "+", "-=": "-", "*=": "*", "/=": "/", "%=": "%"}

T = TypeVar("T")


class RendererBase:
    """Render a language-neutral AST as source text.

    A language sets the spelling attributes below and overrides the hooks
    it spells differently: :meth:`call` for builtins, :meth:`new_array`,
    :meth:`decl_str`, :meth:`signature` and :meth:`translation_unit`.
    """

    language = "?"
    #: Language name used in error messages.
    dialect = "?"
    ARRAY_TYPE: str
    SCALAR_TYPES: Dict[str, str]
    #: Spellings of ``false`` and ``true``.
    BOOL_LITERALS: Tuple[str, str]
    #: The output statement, formatted with the rendered value.
    PRINT_FORMAT: str
    #: Indent level of function definitions in the translation unit.
    FUNCTION_INDENT = 0

    # ----------------------------------------------------- language hooks
    def type_str(self, t) -> str:
        """The language's spelling of a type."""
        if isinstance(t, ast.ArrayType):
            return self.ARRAY_TYPE
        return self.SCALAR_TYPES[t.name]

    def call(self, e: ast.Call) -> str:
        """A user call; languages spell their builtins, then defer here."""
        return f"{e.name}({self.expr_list(e.args)})"

    def new_array(self, e: ast.NewArray) -> str:
        """A ``new``-style array expression (only Java spells one)."""
        raise TypeError(f"cannot render NewArray in {self.dialect}")

    def decl_str(self, s: ast.VarDecl) -> str:
        """``type name [= init]`` without the trailing ``;``."""
        type_s = self.type_str(s.type)
        if s.init is None:
            return f"{type_s} {s.name}"
        return f"{type_s} {s.name} = {self.expr(s.init)}"

    def signature(self, f: ast.Function) -> str:
        """A function head ``type name(params)``."""
        params = ", ".join(f"{self.type_str(p.type)} {p.name}" for p in f.params)
        return f"{self.type_str(f.return_type)} {f.name}({params})"

    def translation_unit(self, functions: str) -> str:
        """Wrap the rendered functions in the file's headers/class."""
        raise NotImplementedError

    # -------------------------------------------------------- expressions
    def expr_list(self, exprs: List[ast.Expr]) -> str:
        """Comma-separated rendered expressions."""
        return ", ".join(self.expr(x) for x in exprs)

    def expr(self, e: ast.Expr) -> str:
        """Render an expression."""
        if isinstance(e, ast.IntLit):
            return str(e.value)
        if isinstance(e, ast.BoolLit):
            return self.BOOL_LITERALS[bool(e.value)]
        if isinstance(e, ast.Var):
            return e.name
        if isinstance(e, ast.BinOp):
            return f"({self.expr(e.left)} {e.op} {self.expr(e.right)})"
        if isinstance(e, ast.UnaryOp):
            return f"({e.op}{self.expr(e.operand)})"
        if isinstance(e, ast.Index):
            return f"{self.expr(e.base)}[{self.expr(e.index)}]"
        if isinstance(e, ast.Call):
            return self.call(e)
        if isinstance(e, ast.ArrayLit):
            return "{" + self.expr_list(e.elements) + "}"
        if isinstance(e, ast.NewArray):
            return self.new_array(e)
        raise TypeError(f"cannot render {type(e).__name__} in {self.dialect}")

    # --------------------------------------------------------- statements
    def stmt(self, s: ast.Stmt, indent: int) -> List[str]:
        """Render a statement as source lines."""
        pad = "    " * indent
        if isinstance(s, ast.VarDecl):
            return [pad + self.decl_str(s) + ";"]
        if isinstance(s, ast.Assign):
            return [pad + f"{self.expr(s.target)} = {self.expr(s.value)};"]
        if isinstance(s, ast.If):
            lines = [pad + f"if ({self.expr(s.cond)}) {{"]
            lines += self.block_lines(s.then, indent + 1)
            if s.otherwise is not None:
                lines.append(pad + "} else {")
                lines += self.block_lines(s.otherwise, indent + 1)
            lines.append(pad + "}")
            return lines
        if isinstance(s, ast.While):
            lines = [pad + f"while ({self.expr(s.cond)}) {{"]
            lines += self.block_lines(s.body, indent + 1)
            lines.append(pad + "}")
            return lines
        if isinstance(s, ast.For):
            init = self._inline_stmt(s.init)
            cond = self.expr(s.cond) if s.cond is not None else ""
            step = self._inline_stmt(s.step)
            lines = [pad + f"for ({init}; {cond}; {step}) {{"]
            lines += self.block_lines(s.body, indent + 1)
            lines.append(pad + "}")
            return lines
        if isinstance(s, ast.Return):
            if s.value is None:
                return [pad + "return;"]
            return [pad + f"return {self.expr(s.value)};"]
        if isinstance(s, ast.Break):
            return [pad + "break;"]
        if isinstance(s, ast.Continue):
            return [pad + "continue;"]
        if isinstance(s, ast.Print):
            return [pad + self.PRINT_FORMAT.format(self.expr(s.value))]
        if isinstance(s, ast.ExprStmt):
            return [pad + self.expr(s.expr) + ";"]
        if isinstance(s, ast.Block):
            return [pad + "{"] + self.block_lines(s, indent + 1) + [pad + "}"]
        raise TypeError(f"cannot render {type(s).__name__} in {self.dialect}")

    def _inline_stmt(self, s: Optional[ast.Stmt]) -> str:
        if s is None:
            return ""
        if isinstance(s, ast.VarDecl):
            return self.decl_str(s)
        if isinstance(s, ast.Assign):
            return f"{self.expr(s.target)} = {self.expr(s.value)}"
        if isinstance(s, ast.ExprStmt):
            return self.expr(s.expr)
        raise TypeError(f"cannot inline {type(s).__name__}")

    def block_lines(self, block: ast.Block, indent: int) -> List[str]:
        """Render a block's statements."""
        lines: List[str] = []
        for s in block.statements:
            lines += self.stmt(s, indent)
        return lines

    # ------------------------------------------------------------ program
    def render(self, program: ast.Program) -> str:
        """Render the full translation unit."""
        pad = "    " * self.FUNCTION_INDENT
        chunks: List[str] = []
        for f in program.functions:
            lines = [f"{pad}{self.signature(f)} {{"]
            lines += self.block_lines(f.body, self.FUNCTION_INDENT + 1)
            lines.append(pad + "}")
            chunks.append("\n".join(lines))
        return self.translation_unit("\n\n".join(chunks))


class ParserBase:
    """Token-stream cursor with the shared grammar productions."""

    language = "?"
    #: Type keywords that start a variable declaration.
    DECL_KEYWORDS: Tuple[str, ...] = ()

    def __init__(self, tokens: List[Token]):  # noqa: D107
        self.tokens = tokens
        self.pos = 0

    # ------------------------------------------------------------- cursor
    def peek(self, offset: int = 0) -> Token:
        """Look ahead without consuming."""
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def advance(self) -> Token:
        """Consume and return the current token."""
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def check(self, value: str, kind: Optional[str] = None) -> bool:
        """True if the current token matches ``value`` (and ``kind``)."""
        tok = self.peek()
        if kind is not None and tok.kind != kind:
            return False
        return tok.value == value

    def accept(self, value: str) -> bool:
        """Consume the current token if it matches ``value``."""
        if self.peek().value == value and self.peek().kind != "eof":
            self.advance()
            return True
        return False

    def expect(self, value: str) -> Token:
        """Consume a token equal to ``value`` or raise :class:`ParseError`."""
        tok = self.peek()
        if tok.value != value or tok.kind == "eof":
            raise self.error(tok.line, f"expected {value!r}, got {tok.value!r}")
        return self.advance()

    def expect_kind(self, kind: str) -> Token:
        """Consume a token of ``kind`` or raise."""
        tok = self.peek()
        if tok.kind != kind:
            raise self.error(tok.line, f"expected {kind}, got {tok.kind} {tok.value!r}")
        return self.advance()

    def error(self, line: int, message: str) -> ParseError:
        """A :class:`ParseError` tagged with the language and line."""
        return ParseError(f"[{self.language}] line {line}: {message}")

    def parse_list(self, open_: str, close: str, item: Callable[[], T]) -> List[T]:
        """``open [item (, item)*] close``."""
        self.expect(open_)
        items: List[T] = []
        if not self.check(close):
            items.append(item())
            while self.accept(","):
                items.append(item())
        self.expect(close)
        return items

    # ----------------------------------------------------- subclass hooks
    def parse_type(self) -> object:
        """Parse a type spelling; subclasses override."""
        raise NotImplementedError

    def parse_primary_hook(self) -> Optional[ast.Expr]:
        """Try language-specific primaries (``new int[n]``, ``std::``...)."""
        return None

    def parse_postfix_hook(self, expr: ast.Expr) -> Optional[ast.Expr]:
        """Try language-specific postfix forms (``a.length``)."""
        return None

    def canonical_call(self, name: str, args: List[ast.Expr]) -> ast.Expr:
        """Map a raw call to a canonical builtin or user call."""
        return ast.Call(name, args)

    def parse_print_hook(self) -> Optional[ast.Stmt]:
        """Try the language's output statement; return None if absent."""
        return None

    def parse_param(self) -> ast.Param:
        """Parse one function parameter; subclasses override."""
        raise NotImplementedError

    # -------------------------------------------------------- expressions
    def parse_expr(self, min_prec: int = 1) -> ast.Expr:
        """Precedence-climbing binary expression parser."""
        return self.parse_expr_continue(self.parse_unary(), min_prec)

    def parse_expr_continue(self, left: ast.Expr, min_prec: int = 1) -> ast.Expr:
        """Continue a binary expression whose left side is already parsed."""
        while True:
            tok = self.peek()
            prec = BINARY_PRECEDENCE.get(tok.value) if tok.kind == "op" else None
            if prec is None or prec < min_prec:
                return left
            self.advance()
            right = self.parse_expr(prec + 1)
            left = ast.BinOp(tok.value, left, right)

    def parse_unary(self) -> ast.Expr:
        """Unary minus / logical not / parenthesized / primary."""
        tok = self.peek()
        if tok.kind == "op" and tok.value in ("-", "!"):
            self.advance()
            return ast.UnaryOp(tok.value, self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        """Primary followed by subscripts / calls / language hooks."""
        expr = self.parse_primary()
        while True:
            if self.accept("["):
                idx = self.parse_expr()
                self.expect("]")
                expr = ast.Index(expr, idx)
                continue
            hooked = self.parse_postfix_hook(expr)
            if hooked is not None:
                expr = hooked
                continue
            return expr

    def parse_call_args(self) -> List[ast.Expr]:
        """Parse ``( expr, ... )`` after a callee name."""
        return self.parse_list("(", ")", self.parse_expr)

    def parse_brace_list(self) -> ast.ArrayLit:
        """Parse a ``{ expr, ... }`` array initializer."""
        return ast.ArrayLit(self.parse_list("{", "}", self.parse_expr))

    def parse_primary(self) -> ast.Expr:
        """Literals, identifiers, calls, parens, plus the language hook."""
        hooked = self.parse_primary_hook()
        if hooked is not None:
            return hooked
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            text = tok.value.rstrip("lL")
            return ast.IntLit(int(text, 0))
        if tok.kind == "kw" and tok.value in ("true", "false"):
            self.advance()
            return ast.BoolLit(tok.value == "true")
        if tok.kind == "op" and tok.value == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.kind == "id":
            self.advance()
            if self.check("("):
                args = self.parse_call_args()
                return self.canonical_call(tok.value, args)
            return ast.Var(tok.value)
        raise self.error(tok.line, f"unexpected token {tok.value!r}")

    # --------------------------------------------------------- statements
    def parse_block(self) -> ast.Block:
        """Parse ``{ stmt* }``."""
        self.expect("{")
        stmts: List[ast.Stmt] = []
        while not self.check("}"):
            stmts.append(self.parse_stmt())
        self.expect("}")
        return ast.Block(stmts)

    def parse_block_or_single(self) -> ast.Block:
        """A braced block, or a single statement wrapped in a block."""
        if self.check("{"):
            return self.parse_block()
        return ast.Block([self.parse_stmt()])

    def looks_like_decl(self) -> bool:
        """True if the current token is a keyword that opens a declaration."""
        tok = self.peek()
        return tok.kind == "kw" and tok.value in self.DECL_KEYWORDS

    def parse_decl(self) -> ast.Stmt:
        """Parse a variable declaration; subclasses override."""
        raise NotImplementedError

    def parse_stmt(self) -> ast.Stmt:
        """Parse a single statement."""
        tok = self.peek()
        if tok.value == "{":
            return self.parse_block()
        if tok.value == "if":
            return self.parse_if()
        if tok.value == "while":
            return self.parse_while()
        if tok.value == "for":
            return self.parse_for()
        if tok.value == "return":
            self.advance()
            value = None if self.check(";") else self.parse_expr()
            self.expect(";")
            return ast.Return(value)
        if tok.value == "break":
            self.advance()
            self.expect(";")
            return ast.Break()
        if tok.value == "continue":
            self.advance()
            self.expect(";")
            return ast.Continue()
        printed = self.parse_print_hook()
        if printed is not None:
            return printed
        if self.looks_like_decl():
            decl = self.parse_decl()
            self.expect(";")
            return decl
        stmt = self.parse_simple_stmt()
        self.expect(";")
        return stmt

    def parse_simple_stmt(self) -> ast.Stmt:
        """Assignment (incl. ``+=``, ``++``) or expression statement."""
        expr = self.parse_postfix()
        tok = self.peek()
        if tok.kind == "op" and tok.value == "=":
            self.advance()
            value = self.parse_expr()
            return ast.Assign(expr, value)
        if tok.kind == "op" and tok.value in AUG_ASSIGN:
            self.advance()
            value = self.parse_expr()
            return ast.Assign(expr, ast.BinOp(AUG_ASSIGN[tok.value], expr, value))
        if tok.kind == "op" and tok.value in ("++", "--"):
            self.advance()
            op = "+" if tok.value == "++" else "-"
            return ast.Assign(expr, ast.BinOp(op, expr, ast.IntLit(1)))
        # maybe the expression continues with binary operators (rare for a
        # statement, but allow e.g. bare call chains)
        if tok.kind == "op" and tok.value in BINARY_PRECEDENCE:
            full = self.parse_expr_continue(expr)
            return ast.ExprStmt(full)
        return ast.ExprStmt(expr)

    def parse_if(self) -> ast.If:
        """``if (cond) block [else block]``."""
        self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then = self.parse_block_or_single()
        otherwise = None
        if self.accept("else"):
            if self.check("if"):
                otherwise = ast.Block([self.parse_if()])
            else:
                otherwise = self.parse_block_or_single()
        return ast.If(cond, then, otherwise)

    def parse_while(self) -> ast.While:
        """``while (cond) block``."""
        self.expect("while")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        return ast.While(cond, self.parse_block_or_single())

    def parse_for(self) -> ast.For:
        """``for (init; cond; step) block``."""
        self.expect("for")
        self.expect("(")
        init: Optional[ast.Stmt] = None
        if not self.check(";"):
            init = self.parse_decl() if self.looks_like_decl() else self.parse_simple_stmt()
        self.expect(";")
        cond = None if self.check(";") else self.parse_expr()
        self.expect(";")
        step: Optional[ast.Stmt] = None
        if not self.check(")"):
            step = self.parse_simple_stmt()
        self.expect(")")
        return ast.For(init, cond, step, self.parse_block_or_single())

    def parse_function(self) -> ast.Function:
        """``type name(params) { body }``, after any modifiers."""
        ret = self.parse_type()
        name = self.expect_kind("id").value
        params = self.parse_list("(", ")", self.parse_param)
        return ast.Function(name, params, ret, self.parse_block())
