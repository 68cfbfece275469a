"""IR-level transforms: rewrite the optimized module before codegen.

These run in the pipeline's ``transform`` stage, after ``optimize`` and
before ``codegen`` — deliberately *after* the optimizer, so the passes
(DCE in particular) cannot undo the perturbation.  Every transform is
semantics-preserving for the VM: injected code is dead, substituted
instructions compute the same value, reordered blocks keep their explicit
terminators, and inlining is the same pass the -O pipelines already run.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.ir.module import Constant, Instruction, Module
from repro.ir.passes.inline import inline_functions
from repro.transform.base import Transform, register_transform, site_count

_IMM_MAX = 2**31 - 1


class InlineTransform(Transform):
    """Aggressive function inlining beyond what the -O pipeline did.

    Reuses :func:`repro.ir.passes.inline.inline_functions` with an
    intensity-scaled size threshold: intensity 0 is a no-op (threshold 0,
    the registry-wide contract), intensity 1 inlines callees up to 200
    instructions — well past the -O3 budget.  Deterministic with no
    randomness, so the seed is unused.
    """

    name = "inline"
    level = "ir"
    description = "inline callees up to an intensity-scaled size threshold"

    def apply_ir(self, module: Module, rng, intensity: float) -> int:
        threshold = int(round(intensity * 200))
        if threshold <= 0:
            return 0
        return inline_functions(module, max_callee_size=threshold)


class DeadCodeTransform(Transform):
    """Inject unused, side-effect-free instruction chains into blocks.

    Each selected block gains a three-instruction arithmetic chain (add →
    xor → mul of random constants) before its terminator.  The chain has
    no uses, so program output is unchanged — but the spill-everything
    backend still materializes every value, growing the binary and the
    decompiled graph the way real dead-code padding does.
    """

    name = "deadcode"
    level = "ir"
    description = "inject unused arithmetic chains before block terminators"

    def apply_ir(self, module: Module, rng, intensity: float) -> int:
        injected = 0
        for fn in module.defined_functions():
            blocks = [b for b in fn.blocks if b.terminator is not None]
            take = site_count(len(blocks), intensity)
            if not take:
                continue
            chosen = rng.choice(len(blocks), size=take, replace=False)
            for bi in sorted(int(i) for i in chosen):
                blk = blocks[bi]
                c1 = Constant(int(rng.integers(1, 1 << 20)))
                c2 = Constant(int(rng.integers(1, 1 << 20)))
                c3 = Constant(int(rng.integers(1, 1 << 10)))
                head = Instruction("add", [c1, c2], c1.type)
                mid = Instruction("xor", [head, c3], c1.type)
                tail = Instruction("mul", [mid, mid], c1.type)
                pos = len(blk.instructions) - 1  # before the terminator
                for off, instr in enumerate((head, mid, tail)):
                    instr.parent = blk
                    blk.instructions.insert(pos + off, instr)
                injected += 1
        return injected


def _flip_pred(pred: str) -> str:
    return {"eq": "eq", "ne": "ne", "slt": "sgt", "sle": "sge",
            "sgt": "slt", "sge": "sle"}[pred]


class InstSubTransform(Transform):
    """Substitute instructions with arithmetic equivalents.

    Rewrites (chosen per-site by the seeded RNG, ``intensity`` = fraction
    of eligible sites):

    * ``add a, C``  → ``sub a, -C``   (and symmetrically for ``sub``)
    * ``mul a, 2^k`` → ``shl a, k``
    * ``icmp p a, b`` → ``icmp p' b, a`` with the predicate mirrored

    All are value-identical under the VM's wrapping 64-bit arithmetic.
    """

    name = "instsub"
    level = "ir"
    description = "replace instructions with arithmetic equivalents"

    def apply_ir(self, module: Module, rng, intensity: float) -> int:
        sites: List[Tuple[Instruction, str]] = []
        for fn in module.defined_functions():
            for instr in fn.instructions():
                kind = self._classify(instr)
                if kind is not None:
                    sites.append((instr, kind))
        take = site_count(len(sites), intensity)
        if not take:
            return 0
        chosen = rng.choice(len(sites), size=take, replace=False)
        for si in sorted(int(i) for i in chosen):
            instr, kind = sites[si]
            self._rewrite(instr, kind)
        return take

    @staticmethod
    def _classify(instr: Instruction) -> "str | None":
        if instr.opcode in ("add", "sub") and len(instr.operands) == 2:
            rhs = instr.operands[1]
            if isinstance(rhs, Constant) and abs(rhs.value) < _IMM_MAX:
                return "negate-const"
        if instr.opcode == "mul" and len(instr.operands) == 2:
            rhs = instr.operands[1]
            if (
                isinstance(rhs, Constant)
                and rhs.value > 1
                and rhs.value & (rhs.value - 1) == 0
            ):
                return "mul-to-shl"
        if instr.opcode == "icmp":
            return "icmp-mirror"
        return None

    @staticmethod
    def _rewrite(instr: Instruction, kind: str) -> None:
        if kind == "negate-const":
            rhs = instr.operands[1]
            instr.opcode = "sub" if instr.opcode == "add" else "add"
            instr.operands[1] = Constant(-rhs.value, rhs.type)
        elif kind == "mul-to-shl":
            rhs = instr.operands[1]
            instr.opcode = "shl"
            instr.operands[1] = Constant(rhs.value.bit_length() - 1, rhs.type)
        elif kind == "icmp-mirror":
            instr.operands = [instr.operands[1], instr.operands[0]]
            instr.extra["pred"] = _flip_pred(instr.extra["pred"])


class BlockReorderTransform(Transform):
    """Permute non-entry basic blocks within each function.

    The backend emits blocks in list order with explicit terminators and
    patches every branch target, so layout is free to change; the
    decompiler's leader analysis then recovers a differently-shaped CFG.
    ``intensity`` scales the number of random swaps applied to the
    non-entry tail.
    """

    name = "blockreorder"
    level = "ir"
    description = "shuffle non-entry basic-block layout"

    def apply_ir(self, module: Module, rng, intensity: float) -> int:
        swapped = 0
        for fn in module.defined_functions():
            tail = fn.blocks[1:]
            if len(tail) < 2:
                continue
            swaps = site_count(len(tail) - 1, intensity)
            for _ in range(swaps):
                i, j = (int(x) for x in rng.choice(len(tail), size=2, replace=False))
                tail[i], tail[j] = tail[j], tail[i]
                swapped += 1
            fn.blocks[1:] = tail
        return swapped


register_transform(InlineTransform())
register_transform(DeadCodeTransform())
register_transform(InstSubTransform())
register_transform(BlockReorderTransform())
