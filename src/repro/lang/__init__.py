"""``repro.lang`` — source-language front-ends (the Clang/JLang substitute).

Three miniature languages — MiniC, MiniCpp, MiniJava — share one abstract
syntax (:mod:`repro.lang.ast`) but differ in surface syntax, idioms and
runtime model, mirroring how real C/C++/Java solutions to the same
competitive-programming task differ.  The package provides:

* a seeded *task/solution generator* (:mod:`repro.lang.tasks`,
  :mod:`repro.lang.generator`) standing in for the CLCDSA / POJ-104 corpora,
* per-language *renderers* (AST → source text),
* a lexer and per-language recursive-descent *parsers* (source text → AST),
  so the pipeline genuinely compiles program text, not in-memory objects.
"""

from repro.lang.ast import (
    ArrayType,
    Assign,
    BinOp,
    Block,
    BoolLit,
    Break,
    Call,
    Continue,
    ExprStmt,
    For,
    Function,
    If,
    Index,
    IntLit,
    NewArray,
    Param,
    Print,
    Program,
    Return,
    ScalarType,
    UnaryOp,
    Var,
    VarDecl,
    While,
)
from repro.lang.lexer import Token, tokenize
from repro.lang.minic import MiniCRenderer, parse_minic
from repro.lang.minicpp import MiniCppRenderer, parse_minicpp
from repro.lang.minijava import MiniJavaRenderer, parse_minijava
from repro.lang.generator import SolutionGenerator, SourceFile
from repro.lang.tasks import TASK_REGISTRY, Task

__all__ = [
    "Program",
    "Function",
    "Param",
    "Block",
    "VarDecl",
    "Assign",
    "If",
    "While",
    "For",
    "Return",
    "Break",
    "Continue",
    "ExprStmt",
    "Print",
    "IntLit",
    "BoolLit",
    "Var",
    "BinOp",
    "UnaryOp",
    "Call",
    "Index",
    "NewArray",
    "ScalarType",
    "ArrayType",
    "Token",
    "tokenize",
    "MiniCRenderer",
    "MiniCppRenderer",
    "MiniJavaRenderer",
    "parse_minic",
    "parse_minicpp",
    "parse_minijava",
    "SolutionGenerator",
    "SourceFile",
    "Task",
    "TASK_REGISTRY",
]
