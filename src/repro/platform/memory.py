"""Memory models for the simulated platform.

EVEREST nodes carry several physical memories (paper Fig. 4): host DDR on
the POWER9, DDR/HBM attached to the FPGA card, and on-fabric BRAM. Each is
described by capacity, per-channel bandwidth, access latency and energy
per byte so that the compiler's cost model and the runtime's placement
decisions can reason about data locality.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import CapacityError
from repro.utils.validation import check_non_negative, check_positive


class MemoryTechnology(enum.Enum):
    """Technology class, ordered roughly by distance from the datapath."""

    BRAM = "bram"
    HBM = "hbm"
    DDR4 = "ddr4"
    HOST_DDR = "host_ddr"
    REMOTE = "remote"


_DEFAULTS = {
    # technology: (latency_s, bandwidth_per_channel_B/s, energy_pJ/byte)
    MemoryTechnology.BRAM: (5e-9, 32e9, 0.5),
    MemoryTechnology.HBM: (120e-9, 32e9, 4.0),
    MemoryTechnology.DDR4: (90e-9, 19.2e9, 20.0),
    MemoryTechnology.HOST_DDR: (100e-9, 25.6e9, 25.0),
    MemoryTechnology.REMOTE: (5e-6, 10e9, 60.0),
}


@dataclass
class MemoryModel:
    """One physical memory: capacity, channels, timing and energy.

    Allocation is tracked in bytes so placement code can detect
    capacity exhaustion; bandwidth contention across channels is modeled
    by the effective-bandwidth helper, with queuing handled by the DES
    layer where it matters.
    """

    name: str
    technology: MemoryTechnology
    capacity_bytes: int
    channels: int = 1
    latency_s: float = field(default=0.0)
    bandwidth_per_channel: float = field(default=0.0)
    energy_pj_per_byte: float = field(default=0.0)
    allocated_bytes: int = field(default=0, init=False)

    def __post_init__(self):
        check_positive("capacity_bytes", self.capacity_bytes)
        check_positive("channels", self.channels)
        defaults = _DEFAULTS[self.technology]
        if not self.latency_s:
            self.latency_s = defaults[0]
        if not self.bandwidth_per_channel:
            self.bandwidth_per_channel = defaults[1]
        if not self.energy_pj_per_byte:
            self.energy_pj_per_byte = defaults[2]

    @property
    def peak_bandwidth(self) -> float:
        """Aggregate bandwidth across all channels (B/s)."""
        return self.channels * self.bandwidth_per_channel

    @property
    def free_bytes(self) -> int:
        """Capacity not yet allocated."""
        return self.capacity_bytes - self.allocated_bytes

    def allocate(self, num_bytes: int) -> None:
        """Reserve ``num_bytes``; raises :class:`CapacityError` if full."""
        check_non_negative("num_bytes", num_bytes)
        if num_bytes > self.free_bytes:
            raise CapacityError(
                f"memory {self.name!r}: requested {num_bytes} B but only "
                f"{self.free_bytes} B free of {self.capacity_bytes} B"
            )
        self.allocated_bytes += num_bytes

    def free(self, num_bytes: int) -> None:
        """Release a previous allocation."""
        check_non_negative("num_bytes", num_bytes)
        if num_bytes > self.allocated_bytes:
            raise CapacityError(
                f"memory {self.name!r}: freeing {num_bytes} B exceeds "
                f"allocated {self.allocated_bytes} B"
            )
        self.allocated_bytes -= num_bytes

    def access_energy(self, num_bytes: int) -> float:
        """Joules consumed moving ``num_bytes``."""
        check_non_negative("num_bytes", num_bytes)
        return num_bytes * self.energy_pj_per_byte * 1e-12
