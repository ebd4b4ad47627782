"""Canonicalization: constant folding, CSE and dead-code elimination.

These run between every major phase so later passes and the HLS engine
see minimal IR. Only operations whose dialect definition carries the
*pure* trait participate in CSE/DCE. Folding has no arithmetic of its
own: it calls the op table's evaluator, the one the reference
interpreter runs, on the scalar ops :data:`_FOLDED` names.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.ir.dialects import op_is_pure
from repro.core.ir.dialects.elementwise import SCALAR
from repro.core.ir.module import Module
from repro.core.ir.ops import Block, Operation
from repro.core.ir.passes.pass_manager import Pass

#: The scalar ops folded. Policy, not capability: every row of the op
#: table could fold, but widening the set moves IR.
_FOLDED = {f"kernel.{name}" for name in (
    "addf subf mulf divf addi subi muli maxf minf negf expf sqrtf absf".split())}

#: Fold + CSE + DCE rounds :class:`CanonicalizePass` runs at most.
MAX_ITERATIONS = 8


def _const_value(op_operand) -> Optional[float]:
    producer = op_operand.producer
    if producer is not None and producer.name == "kernel.const":
        return producer.attr("value")
    return None


class ConstantFoldPass(Pass):
    """Fold kernel arithmetic whose operands are all constants."""

    name = "constant-fold"

    def run(self, module: Module) -> bool:
        changed = False
        for op in list(module.walk()):
            if op.name not in _FOLDED or not op.results:
                continue
            values = [_const_value(operand) for operand in op.operands]
            if any(value is None for value in values):
                continue
            try:
                folded = SCALAR[op.name].evaluate(*values)
            except (ValueError, OverflowError):
                continue
            const = Operation(
                "kernel.const",
                result_types=[op.results[0].type],
                attributes={"value": folded},
            )
            op.parent.insert_before(op, const)
            op.results[0].replace_all_uses_with(const.result)
            op.erase()
            changed = True
        return changed


class CSEPass(Pass):
    """Common-subexpression elimination over pure ops, per block."""

    name = "cse"

    def run(self, module: Module) -> bool:
        changed = False
        for func in module.functions():
            for block in _all_blocks(func.op):
                changed |= self._run_on_block(block)
        return changed

    @staticmethod
    def _key(op: Operation) -> Tuple:
        attrs = tuple(sorted(
            (key, repr(value)) for key, value in op.attributes.items()
        ))
        return (op.name, tuple(id(o) for o in op.operands), attrs)

    def _run_on_block(self, block: Block) -> bool:
        changed = False
        seen: Dict[Tuple, Operation] = {}
        for op in list(block.operations):
            if not op_is_pure(op) or op.regions or not op.results:
                continue
            key = self._key(op)
            existing = seen.get(key)
            if existing is None:
                seen[key] = op
                continue
            for old, new in zip(op.results, existing.results):
                old.replace_all_uses_with(new)
            op.erase()
            changed = True
        return changed


class DCEPass(Pass):
    """Remove pure operations whose results are all unused."""

    name = "dce"

    def run(self, module: Module) -> bool:
        changed = True
        any_changed = False
        while changed:
            changed = False
            for op in list(module.walk()):
                if not op_is_pure(op) or op.regions:
                    continue
                if op.parent is None:
                    continue
                if all(not result.uses for result in op.results):
                    op.erase()
                    changed = True
                    any_changed = True
        return any_changed


class CanonicalizePass(Pass):
    """Fold + CSE + DCE to a fixed point (bounded iterations)."""

    name = "canonicalize"

    def run(self, module: Module) -> bool:
        any_changed = False
        for _ in range(MAX_ITERATIONS):
            changed = ConstantFoldPass().run(module)
            changed |= CSEPass().run(module)
            changed |= DCEPass().run(module)
            any_changed |= changed
            if not changed:
                break
        return any_changed


def _all_blocks(op: Operation):
    for region in op.regions:
        for block in region.blocks:
            yield block
            for inner in block.operations:
                yield from _all_blocks(inner)
