"""Shorthand constructors for building ASTs in the task library.

The task templates in :mod:`repro.lang.tasks` build the same program dozens
of times with small variations; these helpers keep them readable:

>>> body = block(decl("s", 0), forto("i", 0, v("n"), block(
...     assign("s", add(v("s"), idx("a", v("i")))))), ret(v("s")))
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.lang import ast

ExprLike = Union[ast.Expr, int, bool, str]


def e(x: ExprLike) -> ast.Expr:
    """Coerce ints/bools/strs into literal/var expression nodes."""
    if isinstance(x, ast.Expr):
        return x
    if isinstance(x, bool):
        return ast.BoolLit(x)
    if isinstance(x, int):
        return ast.IntLit(x)
    if isinstance(x, str):
        return ast.Var(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to expression")


def v(name: str) -> ast.Var:
    """Variable reference."""
    return ast.Var(name)


def i(value: int) -> ast.IntLit:
    """Integer literal."""
    return ast.IntLit(value)


def binop(op: str, left: ExprLike, right: ExprLike) -> ast.BinOp:
    """Binary operation with coercion."""
    return ast.BinOp(op, e(left), e(right))


def add(a: ExprLike, b: ExprLike) -> ast.BinOp:
    """a + b"""
    return binop("+", a, b)


def sub(a: ExprLike, b: ExprLike) -> ast.BinOp:
    """a - b"""
    return binop("-", a, b)


def mul(a: ExprLike, b: ExprLike) -> ast.BinOp:
    """a * b"""
    return binop("*", a, b)


def div(a: ExprLike, b: ExprLike) -> ast.BinOp:
    """a / b (truncating)"""
    return binop("/", a, b)


def mod(a: ExprLike, b: ExprLike) -> ast.BinOp:
    """a % b"""
    return binop("%", a, b)


def lt(a: ExprLike, b: ExprLike) -> ast.BinOp:
    """a < b"""
    return binop("<", a, b)


def le(a: ExprLike, b: ExprLike) -> ast.BinOp:
    """a <= b"""
    return binop("<=", a, b)


def gt(a: ExprLike, b: ExprLike) -> ast.BinOp:
    """a > b"""
    return binop(">", a, b)


def ge(a: ExprLike, b: ExprLike) -> ast.BinOp:
    """a >= b"""
    return binop(">=", a, b)


def eq(a: ExprLike, b: ExprLike) -> ast.BinOp:
    """a == b"""
    return binop("==", a, b)


def ne(a: ExprLike, b: ExprLike) -> ast.BinOp:
    """a != b"""
    return binop("!=", a, b)


def land(a: ExprLike, b: ExprLike) -> ast.BinOp:
    """a && b"""
    return binop("&&", a, b)


def lor(a: ExprLike, b: ExprLike) -> ast.BinOp:
    """a || b"""
    return binop("||", a, b)


def neg(a: ExprLike) -> ast.UnaryOp:
    """-a"""
    return ast.UnaryOp("-", e(a))


def call(name: str, *args: ExprLike) -> ast.Call:
    """Function/builtin call."""
    return ast.Call(name, [e(a) for a in args])


def idx(base: ExprLike, index: ExprLike) -> ast.Index:
    """base[index]"""
    return ast.Index(e(base), e(index))


def block(*stmts: ast.Stmt) -> ast.Block:
    """Statement block."""
    return ast.Block(list(stmts))


def decl(name: str, init: Optional[ExprLike] = None, type_=None) -> ast.VarDecl:
    """``int name = init`` (type defaults to int)."""
    t = type_ if type_ is not None else ast.ScalarType("int")
    return ast.VarDecl(name, t, e(init) if init is not None else None)


def decl_array(name: str, init: ast.Expr) -> ast.VarDecl:
    """``int[] name = init`` where init is NewArray or ArrayLit."""
    return ast.VarDecl(name, ast.ArrayType(ast.ScalarType("int")), init)


def array_lit(values: Sequence[int]) -> ast.ArrayLit:
    """``{v0, v1, ...}``"""
    return ast.ArrayLit([ast.IntLit(int(x)) for x in values])


def new_array(size: ExprLike) -> ast.NewArray:
    """``new int[size]``"""
    return ast.NewArray(ast.ScalarType("int"), e(size))


def assign(target: ExprLike, value: ExprLike) -> ast.Assign:
    """``target = value`` (target is a var name or Index)."""
    return ast.Assign(e(target), e(value))


def if_(cond: ExprLike, then: ast.Block, otherwise: Optional[ast.Block] = None) -> ast.If:
    """if statement."""
    return ast.If(e(cond), then, otherwise)


def while_(cond: ExprLike, body: ast.Block) -> ast.While:
    """while loop."""
    return ast.While(e(cond), body)


def forto(var: str, start: ExprLike, stop: ExprLike, body: ast.Block, step: int = 1) -> ast.For:
    """``for (int var = start; var < stop; var += step)`` (or ``>`` when step<0)."""
    cmp_op = "<" if step > 0 else ">"
    return ast.For(
        decl(var, start),
        binop(cmp_op, v(var), stop),
        assign(var, add(v(var), step)),
        body,
    )


def for_down(var: str, start: ExprLike, stop: ExprLike, body: ast.Block) -> ast.For:
    """``for (int var = start; var >= stop; var--)``."""
    return ast.For(
        decl(var, start),
        ge(v(var), stop),
        assign(var, sub(v(var), 1)),
        body,
    )


def ret(value: Optional[ExprLike] = None) -> ast.Return:
    """return statement."""
    return ast.Return(e(value) if value is not None else None)


def pr(value: ExprLike) -> ast.Print:
    """print statement."""
    return ast.Print(e(value))


def expr_stmt(expr: ExprLike) -> ast.ExprStmt:
    """Expression statement."""
    return ast.ExprStmt(e(expr))


def param(name: str, array: bool = False) -> ast.Param:
    """Function parameter (int or int[])."""
    t = ast.ArrayType(ast.ScalarType("int")) if array else ast.ScalarType("int")
    return ast.Param(name, t)


def func(name: str, params: List[ast.Param], return_type: str, body: ast.Block) -> ast.Function:
    """Function definition; return_type is a scalar-type name."""
    return ast.Function(name, params, ast.ScalarType(return_type), body)
