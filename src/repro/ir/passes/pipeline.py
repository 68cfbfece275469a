"""Optimization pipelines: the -O0 / -O1 / -O2 / -O3 / -Oz compositions.

Pipeline design mirrors the observable behaviour the paper relies on:

* O0 — nothing: alloca/load/store soup, maximal source fidelity.
* O1 — mem2reg + scalar cleanups: SSA form, smaller and canonical.
* O2 — O1 plus inlining: call structure changes.
* O3 — O2 plus loop peeling: control flow restructured aggressively, which
  is what makes higher -O binaries decompile with the largest drift (RQ2).
* Oz — O1 plus *size-limited* inlining: optimize for size.

Each level is a *named sequence* of individual passes rather than one
opaque function, so :func:`optimize` can re-verify the module after every
pass (``verify=True``, the staged pipeline's debug flag) and a broken
transformation is attributed to the exact pass that produced it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.ir.module import Module
from repro.ir.passes.constfold import constant_fold
from repro.ir.passes.dce import dead_code_elimination
from repro.ir.passes.inline import inline_functions
from repro.ir.passes.instcombine import instcombine
from repro.ir.passes.mem2reg import mem2reg
from repro.ir.passes.peel import peel_loops
from repro.ir.passes.simplifycfg import simplify_cfg
from repro.ir.verifier import verify_all

#: One pipeline entry: (pass name, in-place module transformation).
Pass = Tuple[str, Callable[[Module], None]]


def _inline(max_callee_size: int) -> Pass:
    return (
        f"inline<={max_callee_size}",
        lambda module: inline_functions(module, max_callee_size=max_callee_size),
    )


def _peel(max_loop_size: int) -> Pass:
    return (
        f"peel<={max_loop_size}",
        lambda module: peel_loops(module, max_loop_size=max_loop_size),
    )


_SCALAR_CLEANUP: List[Pass] = [
    ("mem2reg", mem2reg),
    ("constfold", constant_fold),
    ("instcombine", instcombine),
    ("dce", dead_code_elimination),
    ("simplifycfg", simplify_cfg),
    ("constfold2", constant_fold),
    ("dce2", dead_code_elimination),
]

#: Level → ordered pass sequence.  Key set doubles as the valid-level
#: enumeration everywhere (`sorted(OPT_LEVELS)` in CLI help and tests).
OPT_LEVELS: Dict[str, List[Pass]] = {
    "O0": [],
    "O1": list(_SCALAR_CLEANUP),
    "O2": [_inline(40)] + list(_SCALAR_CLEANUP),
    "O3": [_inline(80), _peel(60)] + list(_SCALAR_CLEANUP),
    "Oz": [_inline(12)] + list(_SCALAR_CLEANUP),
}


def passes_for(level: str) -> List[Pass]:
    """The named pass sequence one level runs, in order."""
    if level not in OPT_LEVELS:
        raise ValueError(
            f"unknown optimization level {level!r}; options: {sorted(OPT_LEVELS)}"
        )
    return list(OPT_LEVELS[level])


def optimize(module: Module, level: str = "O0", verify: bool = False) -> Module:
    """Run the named pipeline in place and return the module.

    With ``verify=True`` the full verifier (structural + dataflow) runs
    after every pass; a violation raises :class:`VerificationError`
    naming the pass that introduced it.
    """
    for name, fn in passes_for(level):
        fn(module)
        if verify:
            verify_all(module, context=f"after pass {name!r} ({level})")
    return module
