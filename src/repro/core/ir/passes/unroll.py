"""HLS loop directives: unrolling and pipelining knobs.

Hardware variants differ in how much spatial parallelism HLS extracts;
this pass attaches ``unroll`` factors and a ``pipeline_ii`` of 1 (the
target initiation interval) to ``kernel.for`` loops, which the HLS
scheduler (:mod:`repro.core.hls.scheduling`) honors. Innermost loops
receive the directives; outer loops are left sequential.
"""

from __future__ import annotations

from repro.core.ir.dialects.kernel import loop_range
from repro.core.ir.module import Module
from repro.core.ir.ops import Operation
from repro.core.ir.passes.pass_manager import Pass
from repro.utils.validation import check_positive


def is_innermost(op: Operation) -> bool:
    """True when a kernel.for contains no nested kernel.for."""
    if op.name != "kernel.for":
        return False
    for region in op.regions:
        for block in region.blocks:
            for inner in block.operations:
                for nested in inner.walk():
                    if nested is not inner and nested.name == "kernel.for":
                        return False
                if inner.name == "kernel.for":
                    return False
    return True


class LoopDirectivesPass(Pass):
    """Attach unroll/pipeline directives to innermost loops."""

    name = "loop-directives"

    def __init__(self, unroll_factor: int = 1):
        self.unroll_factor = int(check_positive("unroll_factor",
                                                unroll_factor))

    def run(self, module: Module) -> bool:
        changed = False
        for op in module.walk():
            if not is_innermost(op):
                continue
            trip = loop_range(op)[3]
            factor = min(self.unroll_factor, trip) if trip else 1
            if op.attr("unroll") != factor:
                op.set_attr("unroll", factor)
                changed = True
            if op.attr("pipeline_ii") != 1:
                op.set_attr("pipeline_ii", 1)
                changed = True
        return changed
