"""Every public function, class and method in ``src/repro`` has a caller.

A public name (no leading underscore) counts as referenced when its
identifier appears outside its own definition in the program: ``src``
(imports and ``__all__`` lists do not count, so a re-export alone keeps
nothing alive), ``benchmarks``, ``perfbench``, ``scripts`` or
``examples``.  An identifier is a name, an attribute, or a string
constant that is a plain (dotted) identifier, like a probe's target
attribute.  Docstrings and tests are not references: code that only its
own tests call is dead weight the suite keeps alive.

Matching is by identifier, not by binding, so a method shares a
reference with every other use of its name and the check can miss dead
code.  A name reached only through a computed string (``getattr(obj,
"visit_" + kind)``) needs an allowlist entry.
"""

from __future__ import annotations

import ast
import functools
import re
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CALLER_DIRS = ("src", "benchmarks", "perfbench", "scripts", "examples")

#: Public names kept without a caller in the program, each with the reason.
#: Keys are ``<path under src>:<name>``.
ALLOWLIST: Dict[str, str] = {
    "repro/ir/interp.py:run_module": (
        "the reference IR executor that the differential tests run every "
        "lowering and pass result against"
    ),
    "repro/lang/interp.py:interpret": (
        "the reference source interpreter that the differential tests "
        "compare the IR executor and the binary VM with"
    ),
    "repro/ir/analysis/callgraph.py:call_graph": (
        "documented analysis API (docs/api.md, repro.ir.analysis)"
    ),
    "repro/ir/analysis/cfg.py:dominance_frontiers": (
        "documented analysis API (docs/api.md, repro.ir.analysis)"
    ),
    "repro/faults.py:install": (
        "documented programmatic fault activation (docs/reliability.md)"
    ),
    "repro/index/sharded.py:merge": (
        "documented index API (docs/api.md): absorbs another index "
        "directory's shard files"
    ),
}

_DOTTED = re.compile(r"[A-Za-z_][\w.:]*\Z")

Definition = Tuple[str, str, int, int]  # (path under src, name, first, last line)


def _docstrings(tree: ast.AST) -> Set[int]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                out.add(id(first.value))
    return out


def _definitions(tree: ast.AST, rel: str) -> List[Definition]:
    """Module-level functions and classes, and the methods of classes."""
    out: List[Definition] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not child.name.startswith("_"):
                    out.append((rel, child.name, child.lineno, child.end_lineno))
                if isinstance(child, ast.ClassDef):
                    visit(child)

    visit(tree)
    return out


def _references(tree: ast.AST, rel: str, is_init: bool) -> List[Tuple[str, str, int]]:
    """``(identifier, file, line)`` for every name the module uses."""
    skipped = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            skipped.update(id(n) for n in ast.walk(node))
        elif is_init and isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            skipped.update(id(n) for n in ast.walk(node))
    out = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            out.append((node.id, rel, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, rel, node.lineno))
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and _DOTTED.match(node.value)
        ):
            out.extend((word, rel, node.lineno) for word in re.split(r"[.:]", node.value))
    return out


@functools.lru_cache(maxsize=None)
def _scan() -> Tuple[List[Definition], Dict[str, List[Tuple[str, int]]]]:
    definitions: List[Definition] = []
    references: Dict[str, List[Tuple[str, int]]] = {}
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            rel = path.relative_to(SRC if top == "src" else ROOT).as_posix()
            if top == "src":
                definitions.extend(_definitions(tree, rel))
            for name, where, line in _references(tree, rel, path.name == "__init__.py"):
                references.setdefault(name, []).append((where, line))
    return definitions, references


def _unreferenced() -> List[str]:
    definitions, references = _scan()
    out = []
    for rel, name, first, last in definitions:
        outside = [
            (where, line)
            for where, line in references.get(name, [])
            if not (where == rel and first <= line <= last)
        ]
        if not outside:
            out.append(f"{rel}:{name}")
    return out


def test_every_public_name_has_a_caller():
    unreferenced = [key for key in _unreferenced() if key not in ALLOWLIST]
    assert unreferenced == [], (
        "public names with no caller outside tests (delete them, or make "
        "them private, or add them to ALLOWLIST with a reason):\n  "
        + "\n  ".join(unreferenced)
    )


def test_allowlist_entries_are_still_uncalled_definitions():
    definitions, _ = _scan()
    defined = {f"{rel}:{name}" for rel, name, _, _ in definitions}
    unreferenced = set(_unreferenced())
    stale = [key for key in ALLOWLIST if key not in defined or key not in unreferenced]
    assert stale == [], f"allowlist entries to drop: {stale}"
