"""TaintHLS-style dynamic information flow tracking insertion [18].

Hardware DIFT shadows every architectural register and memory word
with taint bits, propagates them through the datapath in parallel with
the computation, and raises a trap when tainted data reaches an
unchecked egress. At the HLS level this costs:

* shadow flip-flops: one taint bit per pipeline register;
* propagation LUTs: an OR-tree per functional unit;
* shadow BRAM: one extra bit per stored element (modeled as extra
  BRAM kilobits);
* a checker at each memory/stream egress (one cycle, overlapped).

The published TaintHLS results report single-digit-percent area
overhead and negligible performance loss; this model reproduces that
shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.core.hls.memory import MemoryPlan
from repro.platform.resources import FPGAResources

#: LUTs for the taint-propagation network of one functional unit.
_PROPAGATION_LUTS_PER_UNIT = 12
#: Flip-flops per shadowed pipeline value.
_SHADOW_FFS_PER_VALUE = 2
#: LUTs for one egress checker.
_CHECKER_LUTS = 45


@dataclass(frozen=True)
class TaintReport:
    """Overheads added by DIFT instrumentation."""

    extra: FPGAResources
    extra_latency_cycles: int
    tracked_labels: List[str]

    def area_overhead_fraction(self, base: FPGAResources) -> float:
        """Taint area as a fraction of the base design's LUTs+FFs."""
        base_cells = base.luts + base.ffs
        if base_cells == 0:
            return 0.0
        return (self.extra.luts + self.extra.ffs) / base_cells


def apply_taint_tracking(
    unit_counts: Dict[str, int],
    inflight_values: int,
    memory_plan: MemoryPlan,
    labels: List[str],
    egress_count: int = 1,
) -> TaintReport:
    """Compute the DIFT hardware added for the given design footprint.

    ``labels`` are the distinct taint labels (one bit lane each);
    multi-label designs replicate the shadow network per label.
    """
    lanes = max(1, len(labels))
    units = sum(
        count for resource, count in unit_counts.items()
    )
    shadow_bram_kb = 0
    for plan in memory_plan.buffers.values():
        # one taint bit per element, per lane
        bits = plan.memref.num_elements * lanes
        shadow_bram_kb += math.ceil(bits / 8 / 1024)

    extra = FPGAResources(
        luts=lanes * (
            _PROPAGATION_LUTS_PER_UNIT * max(units, 1)
            + _CHECKER_LUTS * max(egress_count, 1)
        ),
        ffs=lanes * _SHADOW_FFS_PER_VALUE * max(inflight_values, 1),
        bram_kb=shadow_bram_kb,
    )
    # Checkers sit off the critical path; the only latency cost is the
    # final egress check before 'done'.
    return TaintReport(
        extra=extra,
        extra_latency_cycles=1,
        tracked_labels=sorted(labels),
    )
