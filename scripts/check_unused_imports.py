#!/usr/bin/env python
"""Fail on imported names a module never uses.

Parses each module with ``ast`` (no code is executed) and compares the
names its imports bind — at module level and inside functions — with the
names it reads. A name counts as used when it is read anywhere in the
module, listed in the module's ``__all__`` (a re-export), or named inside
a string annotation (``def f(x: "Tensor")``, ``List["Module"]``).
``from __future__`` imports are exempt, and so is an import whose line
says ``# noqa: F401`` (one kept for its side effect, such as registering
transforms).

Usage: python scripts/check_unused_imports.py [root ...]
(default: src/repro, resolved relative to the repo root).  Every ``*.py``
under each root is checked.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "repro"


def imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    """Every ``(bound name, line)`` an import statement in ``tree`` binds."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`; `import a.b as c` binds `c`.
                bound.append((alias.asname or alias.name.split(".")[0], node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound.append((alias.asname or alias.name, node.lineno))
    return bound


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    """Names read in ``tree``, in ``__all__``, or inside string annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    inner = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                used |= {
                    e.value for e in node.value.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                }
    return used


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """``(line, name)`` of every import in ``path`` whose name is never used."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    lines = text.splitlines()
    used = used_names(tree)
    return sorted(
        (line, name) for name, line in imported_names(tree)
        if name not in used and "noqa: F401" not in lines[line - 1]
    )


def main(argv: list[str]) -> int:
    roots = [Path(a).resolve() for a in argv[1:]] or [REPO_ROOT / "src" / PACKAGE]
    for root in roots:
        if not root.is_dir():
            print(f"check_unused_imports: no such root: {root}", file=sys.stderr)
            return 2
    paths = sorted(p for root in roots for p in root.rglob("*.py"))
    found = [(p, line, name) for p in paths for line, name in unused_imports(p)]
    if found:
        print(f"check_unused_imports: {len(found)} unused import(s):", file=sys.stderr)
        for path, line, name in found:
            print(f"  {path.relative_to(REPO_ROOT)}:{line}: {name}", file=sys.stderr)
        return 1
    print(f"check_unused_imports: OK ({len(paths)} modules, no unused imports)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
