"""Functional-unit allocation, binding and area estimation.

Given the schedules of all loops, allocation decides how many units of
each class to instantiate (enough for the worst concurrent demand,
never more than the schedule can keep busy) and binds operations to
unit instances. The area model then sums unit footprints, pipeline
registers, FSM control logic and the memory plan's BRAM/register usage
into an :class:`~repro.platform.resources.FPGAResources` estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.hls.cdfg import CDFG
from repro.core.hls.memory import MemoryPlan
from repro.core.hls.scheduling import RESOURCE_CLASS, Schedule
from repro.platform.resources import FPGAResources

#: Area of one functional unit per class.
UNIT_AREA: Dict[str, FPGAResources] = {
    "fadd": FPGAResources(luts=420, ffs=580, bram_kb=0, dsps=2),
    "fmul": FPGAResources(luts=130, ffs=190, bram_kb=0, dsps=3),
    "fdiv": FPGAResources(luts=830, ffs=950, bram_kb=0, dsps=0),
    "special": FPGAResources(luts=1_350, ffs=900, bram_kb=0, dsps=8),
    "int": FPGAResources(luts=64, ffs=64, bram_kb=0, dsps=0),
    "cmp": FPGAResources(luts=40, ffs=16, bram_kb=0, dsps=0),
}

_INT_OPS = ("kernel.addi", "kernel.subi", "kernel.muli", "kernel.divi")
_CMP_OPS = ("kernel.cmplt", "kernel.cmple", "kernel.cmpeq",
            "kernel.cmpgt", "kernel.select")

#: FSM + steering logic cost per schedule state.
_CONTROL_LUTS_PER_STATE = 18
_CONTROL_FFS_PER_STATE = 9
#: Pipeline register cost per in-flight 32-bit value.
_REGISTER_FFS_PER_VALUE = 36


@dataclass
class Binding:
    """Operation-to-unit assignment for one resource class."""

    resource: str
    instances: int
    assignments: Dict[int, int] = field(default_factory=dict)  # id(op)->unit


@dataclass
class Allocation:
    """Full allocation result for one accelerator."""

    unit_counts: Dict[str, int] = field(default_factory=dict)
    bindings: List[Binding] = field(default_factory=list)
    resources: FPGAResources = field(default_factory=FPGAResources)

    def describe(self) -> str:
        """One-line unit inventory."""
        inventory = ", ".join(
            f"{count}x{name}" for name, count in sorted(
                self.unit_counts.items())
        )
        return inventory or "no constrained units"


def _class_of(op_name: str) -> str:
    if op_name in _INT_OPS:
        return "int"
    if op_name in _CMP_OPS:
        return "cmp"
    return RESOURCE_CLASS.get(op_name, "")


def allocate(
    cdfg: CDFG,
    schedules: Dict[int, Schedule],
    memory_plan: MemoryPlan,
) -> Allocation:
    """Allocate and bind; returns the allocation with area estimate."""
    allocation = Allocation()

    # -- unit counts: worst concurrent demand across all loop schedules
    demand_per_class: Dict[str, int] = {}
    states = 0
    inflight_values = 0
    for loop_id, schedule in schedules.items():
        states += schedule.depth
        concurrent = _peak_concurrency(schedule)
        for resource, peak in concurrent.items():
            demand_per_class[resource] = max(
                demand_per_class.get(resource, 0), peak
            )
        if schedule.loop is not None:
            inflight_values += len(schedule.loop.body)

    for resource, count in demand_per_class.items():
        if resource.startswith("memport"):
            continue
        allocation.unit_counts[resource] = count

    # -- binding: round-robin per class in start-cycle order
    for loop_id, schedule in schedules.items():
        if schedule.loop is None:
            continue
        _bind_loop(schedule, allocation)

    # -- area
    total = FPGAResources()
    for resource, count in allocation.unit_counts.items():
        area = UNIT_AREA.get(resource)
        if area is not None:
            total = total + area.scaled(count)
    total = total + FPGAResources(
        luts=_CONTROL_LUTS_PER_STATE * max(states, 1),
        ffs=_CONTROL_FFS_PER_STATE * max(states, 1)
        + _REGISTER_FFS_PER_VALUE * inflight_values,
    )
    bram_kb = math.ceil(memory_plan.total_bram_blocks * 18 / 8)
    total = total + FPGAResources(
        bram_kb=bram_kb,
        ffs=memory_plan.total_register_bits,
    )
    allocation.resources = total
    return allocation


def _peak_concurrency(schedule: Schedule) -> Dict[str, int]:
    """Peak per-class concurrency over the schedule's cycles.

    For pipelined loops, overlapping iterations raise concurrency: an
    op class used ``n`` times per iteration needs ``ceil(n / II)``
    units to sustain the pipeline... more precisely usage wraps modulo
    II, so we fold start cycles into II buckets.
    """
    loop = schedule.loop
    if loop is None:
        return {}
    modulo = schedule.ii if schedule.pipelined else None
    usage: Dict[int, Dict[str, int]] = {}
    for node in loop.body:
        resource = _class_of(node.op.name)
        if not resource or resource == "memport":
            continue
        start = schedule.start_cycle.get(id(node), 0)
        bucket = start % modulo if modulo else start
        cycle_usage = usage.setdefault(bucket, {})
        cycle_usage[resource] = (
            cycle_usage.get(resource, 0) + schedule.unroll
        )
    peak: Dict[str, int] = {}
    for cycle_usage in usage.values():
        for resource, count in cycle_usage.items():
            peak[resource] = max(peak.get(resource, 0), count)
    return peak


def _bind_loop(schedule: Schedule, allocation: Allocation) -> None:
    loop = schedule.loop
    per_class: Dict[str, Binding] = {}
    next_unit: Dict[str, int] = {}
    for node in sorted(
        loop.body, key=lambda n: schedule.start_cycle.get(id(n), 0)
    ):
        resource = _class_of(node.op.name)
        if not resource or resource == "memport":
            continue
        instances = allocation.unit_counts.get(resource, 1)
        binding = per_class.get(resource)
        if binding is None:
            binding = Binding(resource=resource, instances=instances)
            per_class[resource] = binding
            allocation.bindings.append(binding)
        unit = next_unit.get(resource, 0)
        binding.assignments[id(node.op)] = unit
        next_unit[resource] = (unit + 1) % max(1, instances)
