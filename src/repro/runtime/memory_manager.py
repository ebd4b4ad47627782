"""Flexible memory management: buffer placement across node memories.

Paper §II: "Flexible memory managers will enable to co-optimize
computation, communication, and storage, to move the computation
closer to the data." Within one node, a kernel's buffers can live in
host DDR, the FPGA card's DDR, or on-fabric BRAM; each placement
changes the accelerator's effective access time and the staging cost.

The :class:`MemoryManager` solves the placement greedily: buffers are
ranked by access intensity (accesses x bytes) and placed into the
fastest memory with room, falling back outward. It returns a
:class:`PlacementPlan` with per-buffer assignments and the predicted
access/staging cost that the DSE and executor can compare against
alternatives (e.g. everything-in-host-DDR).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import CapacityError, RuntimeSystemError
from repro.platform.interconnect import Link
from repro.platform.memory import MemoryModel, MemoryTechnology
from repro.utils.validation import check_non_negative, check_positive

#: Preference order: closest to the datapath first.
_SPEED_ORDER = [
    MemoryTechnology.BRAM,
    MemoryTechnology.HBM,
    MemoryTechnology.DDR4,
    MemoryTechnology.HOST_DDR,
    MemoryTechnology.REMOTE,
]


@dataclass(frozen=True)
class BufferRequest:
    """One buffer a kernel wants placed."""

    name: str
    size_bytes: int
    accesses_per_invocation: int
    resident: bool = False  # True: stays across invocations (weights)

    def __post_init__(self):
        check_positive("size_bytes", self.size_bytes)
        check_non_negative("accesses_per_invocation",
                           self.accesses_per_invocation)

    @property
    def intensity(self) -> float:
        """Traffic generated per invocation (bytes touched)."""
        return float(self.accesses_per_invocation) * self.size_bytes


@dataclass
class PlacementPlan:
    """Result of placing one kernel's buffers."""

    assignments: Dict[str, str] = field(default_factory=dict)
    access_seconds: float = 0.0
    staging_seconds: float = 0.0
    energy_j: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Access plus per-invocation staging."""
        return self.access_seconds + self.staging_seconds

    def memory_of(self, buffer_name: str) -> str:
        """Assigned memory of one buffer."""
        if buffer_name not in self.assignments:
            raise RuntimeSystemError(
                f"buffer {buffer_name!r} was not placed"
            )
        return self.assignments[buffer_name]


class MemoryManager:
    """Places kernel buffers across a node's memory hierarchy."""

    def __init__(
        self,
        memories: Sequence[MemoryModel],
        host_link: Optional[Link] = None,
    ):
        if not memories:
            raise RuntimeSystemError("no memories to manage")
        self.memories = sorted(
            memories,
            key=lambda m: _SPEED_ORDER.index(m.technology),
        )
        self.host_link = host_link

    # ------------------------------------------------------------------

    def _access_cost(self, memory: MemoryModel,
                     request: BufferRequest) -> Tuple[float, float]:
        """(seconds, joules) of one invocation's accesses."""
        bytes_touched = request.intensity
        seconds = (
            request.accesses_per_invocation * memory.latency_s
            + bytes_touched / memory.peak_bandwidth
        )
        joules = memory.access_energy(int(bytes_touched))
        return seconds, joules

    def _staging_cost(self, memory: MemoryModel,
                      request: BufferRequest) -> float:
        """Per-invocation cost of getting the data into ``memory``.

        Host-resident data is free to use from host DDR; any other
        memory pays a copy over the host link. Resident buffers
        amortize their staging and are charged nothing here.
        """
        if request.resident:
            return 0.0
        if memory.technology is MemoryTechnology.HOST_DDR:
            return 0.0
        if self.host_link is None:
            return 0.0
        return self.host_link.transfer_time(request.size_bytes)

    # ------------------------------------------------------------------

    def place(self, requests: Sequence[BufferRequest]) -> PlacementPlan:
        """Greedy intensity-first placement.

        The hottest buffers take the fastest memories; everything is
        guaranteed a slot in the outermost memory or a
        :class:`CapacityError` is raised.
        """
        plan = PlacementPlan()
        free: Dict[str, int] = {
            memory.name: memory.free_bytes for memory in self.memories
        }
        ordered = sorted(requests, key=lambda r: -r.intensity)
        for request in ordered:
            best: Optional[Tuple[float, MemoryModel]] = None
            for memory in self.memories:
                if free[memory.name] < request.size_bytes:
                    continue
                access_s, _energy = self._access_cost(memory, request)
                staging = self._staging_cost(memory, request)
                cost = access_s + staging
                if best is None or cost < best[0]:
                    best = (cost, memory)
            if best is None:
                raise CapacityError(
                    f"buffer {request.name!r} ({request.size_bytes} B) "
                    f"fits no managed memory"
                )
            memory = best[1]
            free[memory.name] -= request.size_bytes
            plan.assignments[request.name] = memory.name
            access_s, energy = self._access_cost(memory, request)
            plan.access_seconds += access_s
            plan.staging_seconds += self._staging_cost(memory, request)
            plan.energy_j += energy
        return plan

    def place_all_in(self, requests: Sequence[BufferRequest],
                     technology: MemoryTechnology) -> PlacementPlan:
        """Baseline: force every buffer into one memory class."""
        memory = next(
            (m for m in self.memories if m.technology is technology),
            None,
        )
        if memory is None:
            raise RuntimeSystemError(
                f"no memory of technology {technology.value!r}"
            )
        plan = PlacementPlan()
        total = sum(r.size_bytes for r in requests)
        if total > memory.free_bytes:
            raise CapacityError(
                f"{total} B do not fit in {memory.name!r}"
            )
        for request in requests:
            plan.assignments[request.name] = memory.name
            access_s, energy = self._access_cost(memory, request)
            plan.access_seconds += access_s
            plan.staging_seconds += self._staging_cost(memory, request)
            plan.energy_j += energy
        return plan
