"""Shared pass utilities: use counting, operand rewriting, block cloning."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.ir.module import BasicBlock, Function, Instruction, Value


def replace_all_uses(fn: Function, mapping: Dict[int, Value]) -> None:
    """Rewrite every operand through ``mapping`` (id(old) → new), transitively."""

    def resolve(v: Value) -> Value:
        seen = set()
        while id(v) in mapping and id(v) not in seen:
            seen.add(id(v))
            v = mapping[id(v)]
        return v

    for blk in fn.blocks:
        for instr in blk.instructions:
            instr.operands = [resolve(op) for op in instr.operands]


def use_counts(fn: Function) -> Dict[int, int]:
    """Number of operand references per instruction id."""
    counts: Dict[int, int] = {}
    for blk in fn.blocks:
        for instr in blk.instructions:
            for op in instr.operands:
                if isinstance(op, Instruction):
                    counts[id(op)] = counts.get(id(op), 0) + 1
    return counts


def erase_instructions(fn: Function, dead: Iterable[Instruction]) -> int:
    """Remove the given instructions from their blocks; returns count removed."""
    dead_ids = {id(d) for d in dead}
    removed = 0
    for blk in fn.blocks:
        before = len(blk.instructions)
        blk.instructions = [i for i in blk.instructions if id(i) not in dead_ids]
        removed += before - len(blk.instructions)
    return removed


def clone_blocks(
    fn: Function,
    blocks: List[BasicBlock],
    value_map: Dict[int, Value],
    label_suffix: str,
) -> Tuple[Dict[BasicBlock, BasicBlock], Dict[int, Value]]:
    """Clone a set of blocks into ``fn``.

    ``value_map`` seeds the operand remapping (e.g. callee args → call
    operands).  Branch targets *inside* the cloned set are remapped to the
    clones; targets outside are preserved.  Returns (block_map, value_map).
    """
    block_map: Dict[BasicBlock, BasicBlock] = {}
    for blk in blocks:
        clone = fn.new_block(f"{blk.label}.{label_suffix}")
        block_map[blk] = clone

    def mapped_value(v: Value) -> Value:
        return value_map.get(id(v), v)

    for blk in blocks:
        clone = block_map[blk]
        for instr in blk.instructions:
            new = Instruction(
                instr.opcode,
                operands=[mapped_value(op) for op in instr.operands],
                type=instr.type,
                blocks=[block_map.get(b, b) for b in instr.blocks],
                extra=dict(instr.extra),
            )
            clone.append(new)
            value_map[id(instr)] = new
    # Second pass: operands that referred to instructions cloned *later*
    # (forward refs only happen via phis) need remapping again.
    for blk in blocks:
        for instr in block_map[blk].instructions:
            instr.operands = [mapped_value(op) for op in instr.operands]
    return block_map, value_map


def phi_incoming_replace(block: BasicBlock, old_pred: BasicBlock, new_pred: Optional[BasicBlock]) -> None:
    """Rewrite or drop the incoming edge ``old_pred`` in every phi of ``block``."""
    for phi in block.phis():
        if new_pred is None:
            keep = [
                (v, b) for v, b in zip(phi.operands, phi.blocks) if b is not old_pred
            ]
            phi.operands = [v for v, _ in keep]
            phi.blocks = [b for _, b in keep]
        else:
            phi.blocks = [new_pred if b is old_pred else b for b in phi.blocks]
