#!/usr/bin/env python
"""Golden graph fingerprints: fail when the graph front end's output drifts.

Every artifact-store key, index entry and query-cache key is derived from
``graph_fingerprint``, so a builder, printer, lifter or type-system change
that alters one node text, edge or operand position silently invalidates
them all.  This script pins that output over a fixed seeded grid — the
(task, variant, language, opt level, compiler style) coordinates of
perfbench's serve query universe, built with the repo's own generator,
lowering, optimizer and codegen — and records per coordinate:

* ``graph_fingerprint`` of the decompiled binary's graph, dataflow off/on;
* ``graph_fingerprint`` of the (unoptimized) source module's graph,
  dataflow off/on;
* sha256 of the source module's ``print_module`` text.

Usage (from the repo root)::

    python scripts/graph_fingerprints.py --check            # full grid
    python scripts/graph_fingerprints.py --check --limit 48 # spread slice
    python scripts/graph_fingerprints.py --write            # re-record

``--write`` belongs only with a deliberate, ``PIPELINE_VERSION``-bumping
change of graph output; an optimization must pass ``--check`` unchanged.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.binary.codegen import compile_module  # noqa: E402
from repro.binary.decompiler import decompile_bytes  # noqa: E402
from repro.graphs.programl import build_graph  # noqa: E402
from repro.index.embedding_index import graph_fingerprint  # noqa: E402
from repro.ir.lowering import lower_program  # noqa: E402
from repro.ir.passes import optimize  # noqa: E402
from repro.ir.printer import print_module  # noqa: E402
from repro.lang.generator import LANGUAGES, SolutionGenerator  # noqa: E402
from repro.lang.tasks import TASK_REGISTRY  # noqa: E402

GOLDEN = REPO_ROOT / "tests" / "data" / "graph_fingerprints.json"
#: perfbench's query universe: generator seed, variant range, combos.
SEED = 0
FIRST_VARIANT = 2
VARIANTS = 16
OPT_LEVELS = ("O0", "O1", "O2", "O3", "Oz")
COMPILERS = ("clang", "gcc")
#: Column order of each recorded row.
COLUMNS = ("binary", "binary_dataflow", "source", "source_dataflow", "source_print")

Coord = Tuple[str, int, str, str, str]


def grid() -> List[Coord]:
    """Every (task, variant, language, opt, style), one combo per program."""
    combos = [(opt, style) for opt in OPT_LEVELS for style in COMPILERS]
    coords = [(task, variant, lang)
              for task in sorted(TASK_REGISTRY)
              for variant in range(FIRST_VARIANT, FIRST_VARIANT + VARIANTS)
              for lang in LANGUAGES]
    return [coord + combos[i % len(combos)] for i, coord in enumerate(coords)]


def spread(coords: List[Coord], limit: Optional[int]) -> List[Coord]:
    """``limit`` coordinates evenly spaced over the grid (all of it if None)."""
    if limit is None or limit >= len(coords):
        return coords
    step = len(coords) / limit
    return [coords[int(i * step)] for i in range(limit)]


def key(coord: Coord) -> str:
    """Row key: ``task/vN/lang@opt/style``."""
    task, variant, lang, opt, style = coord
    return f"{task}/v{variant}/{lang}@{opt}/{style}"


def fingerprints(coord: Coord, generator: SolutionGenerator) -> List[str]:
    """The :data:`COLUMNS` digests of one coordinate."""
    task, variant, lang, opt, style = coord
    sf = generator.generate(task, variant, lang)
    module = lower_program(sf.program, name=sf.identifier)
    optimize(module, opt)
    raw = compile_module(module, style=style).encode()
    decompiled = decompile_bytes(raw, sf.identifier)
    source = lower_program(sf.program, name=sf.identifier)
    return [
        graph_fingerprint(build_graph(decompiled)),
        graph_fingerprint(build_graph(decompiled, dataflow=True)),
        graph_fingerprint(build_graph(source)),
        graph_fingerprint(build_graph(source, dataflow=True)),
        hashlib.sha256(print_module(source).encode()).hexdigest(),
    ]


def compute(coords: List[Coord]) -> Dict[str, List[str]]:
    """Digest rows for ``coords``, keyed by :func:`key`."""
    generator = SolutionGenerator(seed=SEED, independent=True)
    return {key(c): fingerprints(c, generator) for c in coords}


def load() -> Dict[str, List[str]]:
    """The recorded rows."""
    data = json.loads(GOLDEN.read_text())
    if tuple(data["columns"]) != COLUMNS:
        raise ValueError(f"{GOLDEN}: columns {data['columns']} != {list(COLUMNS)}")
    return data["rows"]


def mismatches(got: Dict[str, List[str]], want: Dict[str, List[str]]) -> List[str]:
    """One line per (row, column) that differs from the recording."""
    out = []
    for k, row in got.items():
        if k not in want:
            out.append(f"{k}: not recorded")
            continue
        for col, a, b in zip(COLUMNS, row, want[k]):
            if a != b:
                out.append(f"{k}: {col} {a[:16]} != recorded {b[:16]}")
    return out


def write(rows: Dict[str, List[str]]) -> None:
    """Record ``rows``, one row per line so drift diffs stay readable."""
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in rows.items()]
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(
        '{\n"columns": ' + json.dumps(list(COLUMNS)) + ',\n"rows": {\n'
        + ",\n".join(lines) + "\n}}\n"
    )


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="record the full grid")
    mode.add_argument("--check", action="store_true", help="compare against the recording")
    ap.add_argument("--limit", type=int, default=None,
                    help="--check only this many evenly spread programs")
    args = ap.parse_args(argv)
    if args.write:
        rows = compute(grid())
        write(rows)
        print(f"graph fingerprints: wrote {len(rows)} programs to {GOLDEN}")
        return 0
    got, want = compute(spread(grid(), args.limit)), load()
    bad = mismatches(got, want)
    if args.limit is None:
        bad += [f"{k}: recorded but no longer in the grid" for k in want if k not in got]
    for line in bad:
        print(line, file=sys.stderr)
    print(f"graph fingerprints: {len(got)} programs, {len(bad)} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
