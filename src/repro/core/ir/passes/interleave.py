"""Accumulation interleaving: breaking the recurrence wall.

A loop that accumulates into one scalar/element (``c += a*b``) cannot
pipeline below the latency of its load→add→store chain (RecMII). The
classic HLS rewrite keeps ``I`` independent partial sums and reduces
them after the loop: the recurrence distance grows to ``I``, so the
achievable II drops to ``ceil(chain / I)``, at the cost of ``I-1``
extra accumulator registers and a log-depth reduction tree epilogue.

This pass is analysis+annotation: it tags accumulation loops with an
``interleave`` attribute that the scheduler passes, with the chain
latency, to :func:`repro.core.timing.initiation_interval` — the one
place the ``ceil(chain / I)`` term is stated. Design-space
exploration hands the factor to HLS instead (``HLSOptions.interleave``),
which caps it by the same rule (:func:`repro.core.timing.interleave_cap`).
"""

from __future__ import annotations

from repro.core.hls.cdfg import build_cdfg, loop_carried_chain
from repro.core.ir.module import Module
from repro.core.ir.passes.pass_manager import Pass
from repro.core.timing import interleave_cap
from repro.errors import HLSError
from repro.utils.validation import check_positive


class AccumulationInterleavePass(Pass):
    """Tag accumulation loops with an interleave factor.

    Applies only to innermost ``kernel.for`` loops that carry a
    load→…→store recurrence on one buffer; the factor is capped by
    the trip count.
    """

    name = "accumulation-interleave"

    def __init__(self, factor: int = 4):
        self.factor = int(check_positive("factor", factor))

    def run(self, module: Module) -> bool:
        changed = False
        for function in module.functions():
            if function.is_declaration:
                continue
            if any(op.dialect == "tensor" for op in function.walk()):
                continue  # only kernel-form functions
            try:
                cdfg = build_cdfg(function)
            except HLSError:
                continue
            for loop in cdfg.innermost_loops():
                if not loop_carried_chain(loop):
                    continue
                factor = interleave_cap(self.factor, loop.trip_count)
                if loop.op.attr("interleave") != factor:
                    loop.op.set_attr("interleave", factor)
                    changed = True
        return changed
