"""On-chip memory planning: banking, partitioning and port assignment.

Implements the memory-subsystem customization of paper §III-B: each
buffer of a kernel gets a bank layout so the scheduled loop can issue
all its accesses every II cycles — cyclic or block partitioning in the
style of generalized memory partitioning (Wang et al. [28]) with
dual-port BRAM banks, or ``complete`` partitioning into registers for
tiny buffers.

The planner gathers the inputs (access counts, explicit
``hw.partition`` directives, which buffers are small local scratch)
and turns the answer into BRAM/register footprints; the partition
decision itself and the ports a layout grants are
:func:`repro.core.timing.partition_for` and
:func:`repro.core.timing.ports_granted`, the same functions the static
performance analyzer calls for its port floors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.hls.cdfg import CDFG
from repro.core.ir.dialects.hw import partition_directives
from repro.core.ir.ops import Value
from repro.core.ir.types import MemRefType
from repro.core.timing import (
    COMPLETE_PARTITION_LIMIT,
    partition_for,
    port_demand,
    ports_granted,
)
from repro.errors import HLSError
from repro.utils.validation import check_positive

#: BRAM block granularity (bits) — 18 kbit blocks.
BRAM_BLOCK_BITS = 18 * 1024


@dataclass
class BufferPlan:
    """Bank layout of one buffer."""

    value: Value
    memref: MemRefType
    scheme: str = "cyclic"  # cyclic | block | complete
    factor: int = 1  # number of banks

    @property
    def ports(self) -> int:
        """Concurrent ports the layout provides."""
        return ports_granted(
            self.scheme, self.factor, self.memref.num_elements)

    @property
    def bram_blocks(self) -> int:
        """BRAM blocks consumed (0 when registers are used)."""
        if self.scheme == "complete":
            return 0
        bits_per_bank = math.ceil(
            self.memref.num_elements / self.factor
        ) * self.memref.element.bit_width
        return self.factor * max(
            1, math.ceil(bits_per_bank / BRAM_BLOCK_BITS)
        )

    @property
    def register_bits(self) -> int:
        """Flip-flop bits when completely partitioned."""
        if self.scheme != "complete":
            return 0
        return self.memref.num_elements * self.memref.element.bit_width


@dataclass
class MemoryPlan:
    """Bank layouts for every buffer of a function."""

    buffers: Dict[int, BufferPlan] = field(default_factory=dict)

    def ports_map(self) -> Dict[int, int]:
        """id(buffer value) -> available ports (for the scheduler)."""
        return {key: plan.ports for key, plan in self.buffers.items()}

    @property
    def total_bram_blocks(self) -> int:
        """All BRAM blocks across buffers."""
        return sum(plan.bram_blocks for plan in self.buffers.values())

    @property
    def total_register_bits(self) -> int:
        """All register bits from complete partitioning."""
        return sum(plan.register_bits for plan in self.buffers.values())

    def plan_for(self, value: Value) -> Optional[BufferPlan]:
        """Plan of one buffer, if planned."""
        return self.buffers.get(id(value))


def cyclic_conflict_free(offsets: List[int], stride: int, unroll: int,
                         banks: int) -> bool:
    """Check Wang-style cyclic mapping: distinct banks per cycle.

    For unroll copies ``k`` of accesses with constant ``offsets`` and
    per-iteration ``stride``, every address ``stride*k + offset`` in
    one cycle must land in a distinct bank modulo ``banks``.
    """
    check_positive("banks", banks)
    seen = set()
    for copy in range(unroll):
        for offset in offsets:
            bank = (stride * copy + offset) % banks
            if bank in seen:
                return False
            seen.add(bank)
    return True


def small_alloc(buffer: Value) -> bool:
    """Local scratch small enough to become registers.

    Interface buffers always stay addressable memories.
    """
    return (
        buffer.type.num_elements <= COMPLETE_PARTITION_LIMIT
        and buffer.producer is not None
        and buffer.producer.name == "kernel.alloc"
    )


def plan_memories(
    cdfg: CDFG,
    unroll: int = 1,
    strategy: str = "auto",
) -> MemoryPlan:
    """Derive bank layouts from the access pattern of the loop nests.

    ``strategy``: ``auto`` (choose per buffer), ``cyclic``, ``block``
    or ``none`` (single bank, the unoptimized baseline). Banks are
    sized so ``unroll`` body copies can issue every cycle (II = 1).
    """
    if strategy not in ("auto", "cyclic", "block", "none"):
        raise HLSError(f"unknown memory strategy {strategy!r}")
    plan = MemoryPlan()
    explicit = partition_directives(cdfg.function)

    for value, count in cdfg.accesses().items():
        memref = value.type
        if not isinstance(memref, MemRefType):
            continue
        directive = explicit.get(id(value))
        scheme, factor = partition_for(
            directive and directive[1:], strategy, small_alloc(value),
            memref.num_elements, port_demand(count, unroll),
        )
        if scheme == "auto":
            # SoA-layout record buffers bank naturally by field
            # (block); streaming unit-stride buffers prefer cyclic.
            scheme = "block" if memref.layout == "soa" else "cyclic"
        plan.buffers[id(value)] = BufferPlan(
            value=value,
            memref=memref,
            scheme=scheme,
            factor=max(1, factor),
        )
    return plan
