"""Code-variant representation (paper §III-B).

The compiler emits *multiple hardware and software variants* per
kernel; each :class:`Variant` couples the knob settings that produced
it with the cost estimates the runtime's decision maker needs, plus
references to the generated artifacts (binary or bitstream).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.platform.fpga import Bitstream
from repro.platform.resources import FPGAResources

_variant_ids = itertools.count()


@dataclass(frozen=True)
class VariantKnobs:
    """The knob assignment that generated one variant."""

    target: str = "cpu"  # cpu | fpga
    threads: int = 1  # software parallelism
    tile: int = 0  # 0 = untiled
    unroll: int = 1
    memory_strategy: str = "auto"
    layout: str = "row_major"
    clock_hz: float = 250e6
    dift: bool = False
    matmul_order: str = "ijk"  # ijk | ikj (loop interchange)
    interleave: int = 1  # accumulation partial sums

    def describe(self) -> str:
        """Compact human-readable knob string."""
        parts = [self.target]
        if self.target == "cpu":
            parts.append(f"t{self.threads}")
        else:
            parts.append(f"u{self.unroll}")
            parts.append(f"{int(self.clock_hz / 1e6)}MHz")
            parts.append(self.memory_strategy)
        if self.tile:
            parts.append(f"tile{self.tile}")
        if self.layout not in ("row_major",):
            parts.append(self.layout)
        if self.matmul_order != "ijk":
            parts.append(self.matmul_order)
        if self.interleave > 1:
            parts.append(f"il{self.interleave}")
        if self.dift:
            parts.append("dift")
        return "/".join(parts)


@dataclass
class CostEstimate:
    """Predicted cost of one variant on its target.

    ``accuracy`` supports mARGOt-style approximate computing [11]: a
    variant may trade output quality (fewer Monte Carlo samples, a
    reduced model) for latency/energy; 1.0 means exact. ``bitstream``
    is the image of the design a feasible FPGA point was priced from:
    the packager ships it, so no point is synthesized twice.
    """

    latency_s: float
    energy_j: float
    resources: FPGAResources = field(default_factory=FPGAResources)
    data_bytes: int = 0
    feasible: bool = True
    infeasible_reason: str = ""
    accuracy: float = 1.0
    bitstream: Optional[Bitstream] = None

    @classmethod
    def infeasible(
        cls, reason: str, resources: Optional[FPGAResources] = None,
    ) -> "CostEstimate":
        """The verdict on a point that cannot be built or breaks a
        limit — one record, whoever reaches it (the static pruner and
        the cost model's own gate must agree byte for byte)."""
        return cls(
            latency_s=float("inf"), energy_j=float("inf"),
            resources=resources or FPGAResources(),
            feasible=False, infeasible_reason=reason,
        )

    def dominates(self, other: "CostEstimate") -> bool:
        """Pareto dominance on (latency, energy); ties must improve one."""
        if not self.feasible:
            return False
        if not other.feasible:
            return True
        no_worse = (
            self.latency_s <= other.latency_s
            and self.energy_j <= other.energy_j
        )
        better = (
            self.latency_s < other.latency_s
            or self.energy_j < other.energy_j
        )
        return no_worse and better


@dataclass
class Variant:
    """One compiled implementation of a kernel."""

    kernel: str
    knobs: VariantKnobs
    cost: CostEstimate
    variant_id: int = field(default_factory=lambda: next(_variant_ids))

    @property
    def name(self) -> str:
        """Stable display name."""
        return f"{self.kernel}#{self.variant_id}[{self.knobs.describe()}]"

    @property
    def is_hardware(self) -> bool:
        """True for FPGA variants."""
        return self.knobs.target == "fpga"

    def to_metadata(self) -> Dict[str, Any]:
        """Serializable record handed to the runtime decision maker."""
        return {
            "kernel": self.kernel,
            "variant_id": self.variant_id,
            "target": self.knobs.target,
            "knobs": self.knobs.describe(),
            "latency_s": self.cost.latency_s,
            "energy_j": self.cost.energy_j,
            "feasible": self.cost.feasible,
            "resources": {
                "luts": self.cost.resources.luts,
                "ffs": self.cost.resources.ffs,
                "bram_kb": self.cost.resources.bram_kb,
                "dsps": self.cost.resources.dsps,
            },
        }
