"""IR verifier: structural invariants plus analysis-backed checks.

Two layers, both raising :class:`VerificationError` with the function
name, block label, and offending instruction's ``short()`` spelling —
so a failure deep in the staged pipeline names the exact instruction to
look at:

* :func:`verify_module` / :func:`verify_function` — *structural* shape:
  blocks terminate, phis lead their block, operands stay inside the
  function, branch targets exist.  Cheap; tests run it after each
  pipeline stage.
* :func:`verify_dataflow` — *semantic* checks backed by the analysis
  framework (:mod:`repro.ir.analysis`): every non-phi use dominated by
  its definition, phi arity matching the reachable predecessors, uses
  the reaching-definitions fixpoint never delivers a value to.  This is
  what the pass pipeline runs after every optimization / transform pass
  under the ``verify`` debug flag.

:func:`verify_all` composes both.
"""

from __future__ import annotations

from repro.ir.module import (
    BasicBlock,
    Constant,
    Function,
    Instruction,
    Module,
)
from repro.ir.types import VOID


class VerificationError(ValueError):
    """Raised when a module violates an IR invariant."""


def _instr_label(instr: Instruction) -> str:
    if instr.type != VOID:
        return f"{instr.short()} = {instr.opcode}"
    return instr.opcode


def _where(fn: Function, blk: BasicBlock, instr: Instruction) -> str:
    return f"{fn.name}/{blk.label}: [{_instr_label(instr)}]"


def verify_function(fn: Function) -> None:
    """Check one function's structural invariants."""
    if fn.is_declaration:
        if fn.blocks:
            raise VerificationError(f"{fn.name}: declaration with a body")
        return
    if not fn.blocks:
        raise VerificationError(f"{fn.name}: definition without blocks")

    all_blocks = set(fn.blocks)
    for blk in fn.blocks:
        if not blk.instructions:
            raise VerificationError(f"{fn.name}/{blk.label}: empty block")
        term = blk.instructions[-1]
        if not term.is_terminator:
            raise VerificationError(
                f"{_where(fn, blk, term)}: block does not end in a terminator"
            )
        for pos, instr in enumerate(blk.instructions):
            if instr.is_terminator and pos != len(blk.instructions) - 1:
                raise VerificationError(
                    f"{_where(fn, blk, instr)}: terminator mid-block"
                )
            if instr.opcode == "phi" and pos > 0:
                prev = blk.instructions[pos - 1]
                if prev.opcode != "phi":
                    raise VerificationError(
                        f"{_where(fn, blk, instr)}: phi after non-phi "
                        f"[{_instr_label(prev)}]"
                    )
            for target in instr.blocks:
                if instr.opcode != "phi" and target not in all_blocks:
                    raise VerificationError(
                        f"{_where(fn, blk, instr)}: branch to foreign block "
                        f"{target.label}"
                    )

    # Every operand must be a constant, argument, or instruction of this fn.
    instr_ids = {id(i) for i in fn.instructions()} | {id(a) for a in fn.args}
    for blk in fn.blocks:
        for instr in blk.instructions:
            for op in instr.operands:
                if isinstance(op, Constant):
                    continue
                if id(op) not in instr_ids:
                    raise VerificationError(
                        f"{_where(fn, blk, instr)}: operand {op.short()} is "
                        f"defined outside the function: {op!r}"
                    )

    # Phi incoming blocks must cover the reachable predecessors.
    preds = fn.predecessors()
    reachable = fn.reachable_blocks()
    for blk in fn.blocks:
        if blk not in reachable:
            continue
        pred_set = set(p for p in preds[blk] if p in reachable)
        for phi in blk.phis():
            incoming = set(phi.blocks)
            if not pred_set.issubset(incoming):
                missing = sorted(p.label for p in pred_set - incoming)
                raise VerificationError(
                    f"{_where(fn, blk, phi)}: phi missing incoming for {missing}"
                )


def verify_module(module: Module) -> None:
    """Verify every function plus module-level invariants."""
    names = [f.name for f in module.functions]
    if len(names) != len(set(names)):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise VerificationError(f"duplicate function names: {dupes}")
    for fn in module.functions:
        verify_function(fn)


def verify_dataflow(module: Module) -> None:
    """Raise on the first error-severity analysis finding.

    Runs the dominance / reaching-defs / phi-arity checks of
    :mod:`repro.ir.analysis.checks`; warnings (e.g. unreachable blocks,
    which passes legitimately create mid-pipeline) do not raise.
    """
    from repro.ir.analysis.checks import SEVERITY_ERROR, analyze_module

    for finding in analyze_module(module):
        if finding.severity == SEVERITY_ERROR:
            raise VerificationError(
                f"{finding.function}/{finding.block}: "
                f"[{finding.instruction}]: {finding.kind}: {finding.message}"
            )


def verify_all(module: Module, context: str = "") -> None:
    """Structural + dataflow verification, with optional failure context.

    ``context`` names what just ran (a pass or transform); it prefixes
    the error message so a pipeline failure reads "after pass X: ...".
    """
    try:
        verify_module(module)
        verify_dataflow(module)
    except VerificationError as exc:
        if context:
            raise VerificationError(f"{context}: {exc}") from exc
        raise
