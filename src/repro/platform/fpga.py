"""FPGA device model with a cloudFPGA-style shell-role architecture.

The cloudFPGA platform (paper Section V, [8]) splits the fabric into a
privileged **shell** — network stack, management, memory controllers —
and one or more **role** slots holding user logic, swapped at run time by
partial reconfiguration. This module models:

* resource accounting (shell is pre-subtracted from the device capacity),
* role slots with bitstream loading and reconfiguration latency,
* clock scaling for synthesized accelerators,
* static shell power and each image's dynamic power figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import CapacityError, PlatformError
from repro.obs import current_metrics
from repro.platform.memory import MemoryModel
from repro.platform.resources import FPGAResources
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class Bitstream:
    """A synthesized accelerator image targeting one role slot.

    Produced by the HLS backend (:mod:`repro.core.backend.binary`); the
    platform model only needs its footprint, clock and power figures.
    """

    name: str
    footprint: FPGAResources
    clock_hz: float
    dynamic_watts: float = 2.0
    size_bytes: int = 30 * 1024 * 1024
    partial: bool = True

    def __post_init__(self):
        check_positive("clock_hz", self.clock_hz)
        check_non_negative("dynamic_watts", self.dynamic_watts)
        check_positive("size_bytes", self.size_bytes)


@dataclass
class Role:
    """One partially-reconfigurable slot in the fabric."""

    name: str
    capacity: FPGAResources
    loaded: Optional[Bitstream] = None
    reconfigurations: int = field(default=0, init=False)
    busy: bool = field(default=False, init=False)

    def can_host(self, bitstream: Bitstream) -> bool:
        """True if the bitstream's footprint fits this slot."""
        return bitstream.footprint.fits_in(self.capacity)


@dataclass
class Shell:
    """The privileged static region: management + network + memory."""

    name: str = "shell"
    footprint: FPGAResources = field(
        default_factory=lambda: FPGAResources(
            luts=120_000, ffs=180_000, bram_kb=4_000, dsps=100
        )
    )
    static_watts: float = 18.0
    supports_network: bool = True


# Reconfiguration throughput of the ICAP-style configuration port.
_RECONFIG_BYTES_PER_SECOND = 400e6


class FPGADevice:
    """A single FPGA card: shell + role slots + attached memories.

    ``role_slots`` partitions the user region evenly; cloudFPGA uses a
    single role per device, while larger bus-attached cards can host
    several independent accelerators.
    """

    def __init__(
        self,
        name: str,
        capacity: FPGAResources,
        shell: Optional[Shell] = None,
        role_slots: int = 1,
        memories: Optional[List[MemoryModel]] = None,
    ):
        check_positive("role_slots", role_slots)
        self.name = name
        self.capacity = capacity
        self.shell = shell or Shell()
        if not self.shell.footprint.fits_in(capacity):
            raise CapacityError(
                f"device {name!r}: shell footprint exceeds fabric capacity"
            )
        user_region = capacity - self.shell.footprint
        per_slot = FPGAResources(
            luts=user_region.luts // role_slots,
            ffs=user_region.ffs // role_slots,
            bram_kb=user_region.bram_kb // role_slots,
            dsps=user_region.dsps // role_slots,
        )
        self.roles: List[Role] = [
            Role(name=f"{name}/role{i}", capacity=per_slot)
            for i in range(role_slots)
        ]
        self.memories: Dict[str, MemoryModel] = {
            memory.name: memory for memory in (memories or [])
        }

    @property
    def user_capacity(self) -> FPGAResources:
        """Fabric available to user logic across all role slots."""
        total = FPGAResources()
        for role in self.roles:
            total = total + role.capacity
        return total

    def free_role(self) -> Optional[Role]:
        """First role slot with no loaded bitstream, or ``None``."""
        for role in self.roles:
            if role.loaded is None:
                return role
        return None

    def reconfiguration_time(self, bitstream: Bitstream) -> float:
        """Seconds of partial (or full) reconfiguration for the image."""
        size = bitstream.size_bytes
        if not bitstream.partial:
            size *= 3  # full-device image
        return size / _RECONFIG_BYTES_PER_SECOND

    def load(self, bitstream: Bitstream, role: Optional[Role] = None) -> Role:
        """Load a bitstream into a role slot, evicting nothing.

        Returns the role used. Raises :class:`CapacityError` when the
        image does not fit and :class:`PlatformError` when every slot is
        occupied and none was named.
        """
        target = role or self.free_role()
        if target is None:
            raise PlatformError(
                f"device {self.name!r}: all {len(self.roles)} role slots "
                f"occupied; unload one first"
            )
        if target.busy:
            raise PlatformError(
                f"role {target.name!r} is busy; cannot reconfigure"
            )
        if not target.can_host(bitstream):
            raise CapacityError(
                f"bitstream {bitstream.name!r} footprint "
                f"{bitstream.footprint} does not fit role "
                f"{target.name!r} capacity {target.capacity}"
            )
        target.loaded = bitstream
        target.reconfigurations += 1
        current_metrics().counter(
            "fpga.reconfigurations",
            "successful partial reconfigurations",
        ).inc(device=self.name)
        return target

    def unload(self, role: Role) -> None:
        """Clear a role slot."""
        if role.busy:
            raise PlatformError(f"role {role.name!r} is busy; cannot unload")
        role.loaded = None


def make_vu9p(name: str, memories: Optional[List[MemoryModel]] = None,
              role_slots: int = 1) -> FPGADevice:
    """A Virtex UltraScale+ VU9P class datacenter FPGA."""
    return FPGADevice(
        name=name,
        capacity=FPGAResources(
            luts=1_182_000, ffs=2_364_000, bram_kb=75_900, dsps=6_840
        ),
        role_slots=role_slots,
        memories=memories,
    )


def make_ku060(name: str, memories: Optional[List[MemoryModel]] = None
               ) -> FPGADevice:
    """A Kintex UltraScale KU060 class FPGA (cloudFPGA module device)."""
    return FPGADevice(
        name=name,
        capacity=FPGAResources(
            luts=331_680, ffs=663_360, bram_kb=38_000, dsps=2_760
        ),
        shell=Shell(
            footprint=FPGAResources(
                luts=60_000, ffs=90_000, bram_kb=2_500, dsps=40
            ),
            static_watts=9.0,
        ),
        role_slots=1,
        memories=memories,
    )


def make_edge_fpga(name: str) -> FPGADevice:
    """A small Zynq-class edge FPGA."""
    return FPGADevice(
        name=name,
        capacity=FPGAResources(
            luts=117_000, ffs=234_000, bram_kb=5_000, dsps=1_248
        ),
        shell=Shell(
            footprint=FPGAResources(
                luts=20_000, ffs=30_000, bram_kb=500, dsps=10
            ),
            static_watts=2.5,
            supports_network=False,
        ),
        role_slots=1,
    )
