"""HLS loop directives: unrolling and pipelining knobs.

Hardware variants differ in how much spatial parallelism HLS extracts;
this pass attaches ``unroll`` factors and a ``pipeline_ii`` of 1 (the
target initiation interval) to ``kernel.for`` loops, which the HLS
scheduler (:mod:`repro.core.hls.scheduling`) honors. Innermost loops
receive the directives; outer loops are left sequential.

Design-space exploration does not run this pass: it hands the factor
to HLS (``HLSOptions.unroll``), which applies the same rule
(:func:`repro.core.timing.unroll_directive`) to its own loop tree, so
every unroll factor shares one prepared module.
"""

from __future__ import annotations

from repro.core.ir.dialects.kernel import loop_range
from repro.core.ir.module import Module
from repro.core.ir.ops import Operation
from repro.core.ir.passes.pass_manager import Pass
from repro.core.timing import unroll_directive
from repro.utils.validation import check_positive


def is_innermost(op: Operation) -> bool:
    """True when a kernel.for contains no nested kernel.for."""
    return op.name == "kernel.for" and not any(
        nested is not op and nested.name == "kernel.for"
        for nested in op.walk())


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
            unroll, pipeline_ii = unroll_directive(
                self.unroll_factor, loop_range(op)[3])
            for name, value in (("unroll", unroll),
                                ("pipeline_ii", pipeline_ii)):
                if op.attr(name) != value:
                    op.set_attr(name, value)
                    changed = True
        return changed
