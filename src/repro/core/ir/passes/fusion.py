"""Elementwise tensor fusion.

Groups chains of same-shape elementwise tensor ops so that lowering
emits a single loop nest per group instead of one per op — the classic
producer-consumer fusion the paper lists among the tensor-DSL
optimizations (§III-B). The pass is analysis+annotation: it assigns a
``fusion_group`` attribute; :class:`LowerTensorPass` honors it. Which
ops are elementwise is not listed here: :func:`is_elementwise` is
membership in the op table (:mod:`repro.core.ir.dialects.elementwise`).
"""

from __future__ import annotations

from typing import Dict

from repro.core.ir.dialects.elementwise import TENSOR
from repro.core.ir.module import Module
from repro.core.ir.ops import Operation
from repro.core.ir.passes.pass_manager import Pass


def is_elementwise(op: Operation) -> bool:
    """True for tensor ops that map one-to-one over elements: the
    rows of the op table. Fusion groups them, lowering emits them."""
    return op.name in TENSOR


class ElementwiseFusionPass(Pass):
    """Assign fusion groups to connected elementwise subgraphs.

    Two same-shape elementwise ops in the same block fuse when one
    consumes the other — including multi-consumer values (``L * R``
    used twice stays in one loop; the lowering keeps it in a scalar
    register and only materializes values escaping the group).
    Groups are the connected components of that relation.
    """

    name = "elementwise-fusion"

    def run(self, module: Module) -> bool:
        changed = False
        self._next_group = 0
        for func in module.functions():
            changed |= self._run_on_function(func)
        return changed

    def _run_on_function(self, func) -> bool:
        ops = [op for op in func.walk() if is_elementwise(op)]
        if not ops:
            return False
        parent: Dict[int, int] = {id(op): id(op) for op in ops}

        def find(key: int) -> int:
            while parent[key] != key:
                parent[key] = parent[parent[key]]
                key = parent[key]
            return key

        def union(a: int, b: int) -> None:
            parent[find(a)] = find(b)

        by_id = {id(op): op for op in ops}
        for op in ops:
            for operand in op.operands:
                producer = operand.producer
                if (
                    producer is not None
                    and id(producer) in by_id
                    and producer.parent is op.parent
                    and producer.results[0].type == op.results[0].type
                ):
                    union(id(op), id(producer))

        group_numbers: Dict[int, int] = {}
        changed = False
        for op in ops:
            root = find(id(op))
            if root not in group_numbers:
                group_numbers[root] = self._next_group
                self._next_group += 1
            group = group_numbers[root]
            if op.attr("fusion_group") != group:
                op.set_attr("fusion_group", group)
                changed = True
        return changed
