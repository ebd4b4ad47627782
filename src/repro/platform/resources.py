"""Descriptions of compute resources: FPGA fabric, CPUs, GPUs.

These are *capacity* descriptions. Occupancy bookkeeping lives in
:mod:`repro.platform.fpga` (for reconfigurable fabric) and in the runtime
scheduler (for cores).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class FPGAResources:
    """A bundle of FPGA fabric resources (LUTs, FFs, BRAM, DSP slices).

    Immutable; arithmetic returns new bundles. Used both as device
    capacity and as the footprint of a synthesized accelerator.
    """

    luts: int = 0
    ffs: int = 0
    bram_kb: int = 0
    dsps: int = 0

    def __post_init__(self):
        for field in ("luts", "ffs", "bram_kb", "dsps"):
            check_non_negative(field, getattr(self, field))

    def __add__(self, other: "FPGAResources") -> "FPGAResources":
        return FPGAResources(
            luts=self.luts + other.luts,
            ffs=self.ffs + other.ffs,
            bram_kb=self.bram_kb + other.bram_kb,
            dsps=self.dsps + other.dsps,
        )

    def __sub__(self, other: "FPGAResources") -> "FPGAResources":
        result = FPGAResources(
            luts=self.luts - other.luts,
            ffs=self.ffs - other.ffs,
            bram_kb=self.bram_kb - other.bram_kb,
            dsps=self.dsps - other.dsps,
        )
        return result

    def scaled(self, factor: int) -> "FPGAResources":
        """Footprint of ``factor`` replicated instances."""
        check_non_negative("factor", factor)
        return FPGAResources(
            luts=self.luts * factor,
            ffs=self.ffs * factor,
            bram_kb=self.bram_kb * factor,
            dsps=self.dsps * factor,
        )

    def fits_in(self, capacity: "FPGAResources") -> bool:
        """True if this footprint fits within ``capacity``."""
        return (
            self.luts <= capacity.luts
            and self.ffs <= capacity.ffs
            and self.bram_kb <= capacity.bram_kb
            and self.dsps <= capacity.dsps
        )


@dataclass(frozen=True)
class CPUDescription:
    """A CPU socket: core count, clock, issue width, power envelope."""

    name: str
    cores: int
    frequency_hz: float
    flops_per_cycle: float = 4.0
    tdp_watts: float = 100.0
    idle_watts: float = 20.0

    def __post_init__(self):
        check_positive("cores", self.cores)
        check_positive("frequency_hz", self.frequency_hz)
        check_positive("flops_per_cycle", self.flops_per_cycle)
        check_positive("tdp_watts", self.tdp_watts)
        check_non_negative("idle_watts", self.idle_watts)


@dataclass(frozen=True)
class GPUDescription:
    """A GPU co-processor, modeled only at the throughput level."""

    name: str
    peak_flops: float
    memory_bandwidth: float
    tdp_watts: float = 250.0

    def __post_init__(self):
        check_positive("peak_flops", self.peak_flops)
        check_positive("memory_bandwidth", self.memory_bandwidth)
