"""Accelerator dataflow chaining.

Paper §III-B: "Hardware variants could implement a chain of tensor
operations directly on the FPGA logic before writing back to main
memory." Chaining connects synthesized accelerators with on-chip
FIFOs: intermediate buffers never round-trip through DDR, and the
stages overlap at invocation granularity (stage *i* works on batch
*k* while stage *i+1* works on batch *k-1*).

The model: a :class:`ChainedDesign` whose

* resources are the sum of the stages plus FIFO BRAM,
* per-batch interval is the slowest stage,
* pipeline fill latency is the sum of stage latencies,
* external traffic is only the first stage's inputs and the last
  stage's outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from repro.core.hls.bambu import AcceleratorDesign
from repro.core.ir.types import MemRefType
from repro.errors import HLSError
from repro.platform.interconnect import Link
from repro.platform.resources import FPGAResources
from repro.utils.validation import check_positive

#: FIFO sizing: double-buffer the largest intermediate.
_FIFO_SLACK = 2


@dataclass
class ChainedDesign:
    """A pipeline of accelerators connected by on-chip FIFOs."""

    stages: List[AcceleratorDesign]
    fifo_bram_kb: int
    clock_hz: float

    @property
    def resources(self) -> FPGAResources:
        """Fabric footprint: all stages plus the FIFOs."""
        total = FPGAResources(bram_kb=self.fifo_bram_kb)
        for stage in self.stages:
            total = total + stage.resources
        return total

    @property
    def fill_latency_s(self) -> float:
        """Time for the first batch to traverse the whole chain."""
        return sum(
            stage.latency_cycles for stage in self.stages
        ) / self.clock_hz

    @property
    def batch_interval_s(self) -> float:
        """Steady-state time between output batches."""
        return max(
            stage.latency_cycles for stage in self.stages
        ) / self.clock_hz

    def total_time_s(self, batches: int) -> float:
        """Wall time to push ``batches`` through the chain."""
        check_positive("batches", batches)
        return self.fill_latency_s + (batches - 1) * \
            self.batch_interval_s

    def external_bytes_per_batch(self) -> int:
        """Bytes crossing the memory boundary per batch.

        Only the chain's first inputs and last outputs touch DDR;
        everything between stays in the FIFOs.
        """
        first = self.stages[0]
        last = self.stages[-1]
        if len(self.stages) == 1:
            return first.data_bytes
        first_inputs = first.data_bytes - _output_bytes(first)
        return first_inputs + _output_bytes(last)

    @property
    def dynamic_watts(self) -> float:
        """All stages active simultaneously."""
        return sum(stage.dynamic_watts for stage in self.stages)


def _output_bytes(design: AcceleratorDesign) -> int:
    """Bytes of the design's out-parameters (last memref args)."""
    function = design.cdfg.function
    memrefs = [
        t for t in function.type.inputs if isinstance(t, MemRefType)
    ]
    if not memrefs:
        return 0
    # lowered kernels append out-params last; one output assumed
    return memrefs[-1].size_bytes


def chain_designs(
    designs: Sequence[AcceleratorDesign],
) -> ChainedDesign:
    """Connect accelerators into a dataflow chain.

    All stages must share a clock; intermediate FIFO capacity is the
    largest hand-off, double-buffered.
    """
    if not designs:
        raise HLSError("cannot chain zero designs")
    clocks = {design.options.clock_hz for design in designs}
    if len(clocks) != 1:
        raise HLSError(
            f"chained stages must share a clock, got "
            f"{sorted(clocks)}"
        )
    fifo_bytes = 0
    for stage in designs[:-1]:
        fifo_bytes = max(fifo_bytes, _output_bytes(stage))
    fifo_bram_kb = _FIFO_SLACK * math.ceil(fifo_bytes / 1024)
    return ChainedDesign(
        stages=list(designs),
        fifo_bram_kb=fifo_bram_kb,
        clock_hz=clocks.pop(),
    )


def staged_total_time_s(
    designs: Sequence[AcceleratorDesign],
    link: Link,
    batches: int,
) -> float:
    """Baseline: the same stages with DDR round-trips in between.

    Each batch runs stage-by-stage, writing intermediates to memory
    over ``link`` and reading them back — no overlap between stages.
    """
    check_positive("batches", batches)
    per_batch = 0.0
    for index, stage in enumerate(designs):
        per_batch += stage.latency_seconds
        if index < len(designs) - 1:
            handoff = _output_bytes(stage)
            per_batch += 2 * link.transfer_time(handoff)
    return per_batch * batches
