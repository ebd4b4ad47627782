"""Resource-constrained scheduling of loop bodies.

A classical HLS flow (Bambu [27]): operations get ASAP/ALAP bounds,
then list scheduling with a mobility priority packs them into control
steps subject to functional-unit and memory-port constraints. For
pipelined loops the initiation interval is
:func:`repro.core.timing.initiation_interval` over *every* term the
scheduler knows:

* **ResMII** — one ``(class, demand, units)`` term per constrained
  functional-unit class and one ``(buffer, demand, ports)`` term per
  buffer, with ``demand`` counted over ``loop.unroll`` body copies;
* **RecMII** — :func:`chain_latency` of the loop-carried accumulation
  chain (see :func:`repro.core.hls.cdfg.loop_carried_chain`), divided
  by the interleave factor.

The static performance analyzer (:mod:`repro.core.analysis.perf`)
calls the same function with a subset of those terms and the same
:func:`repro.core.timing.pipelined_cycles` with ``depth = 1``, which
is what makes its bound a floor of this schedule.

Latencies are in clock cycles at the accelerator clock.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import ClassVar, Dict, List, Optional, Tuple

from repro.core.hls.cdfg import DFGNode, LoopNode, loop_carried_chain
from repro.core.timing import (
    initiation_interval,
    pipelined_cycles,
    port_demand,
)
from repro.errors import SchedulingError
from repro.utils.validation import check_positive

#: Cycle latency of each operation kind (fully pipelined units, II=1).
OP_LATENCY: Dict[str, int] = {
    "kernel.load": 2,
    "kernel.store": 1,
    "kernel.addf": 3,
    "kernel.subf": 3,
    "kernel.mulf": 4,
    "kernel.divf": 14,
    "kernel.maxf": 1,
    "kernel.minf": 1,
    "kernel.addi": 1,
    "kernel.subi": 1,
    "kernel.muli": 2,
    "kernel.divi": 18,
    "kernel.cmplt": 1,
    "kernel.cmple": 1,
    "kernel.cmpeq": 1,
    "kernel.cmpgt": 1,
    "kernel.select": 1,
    "kernel.negf": 1,
    "kernel.expf": 18,
    "kernel.sqrtf": 12,
    "kernel.tanhf": 20,
    "kernel.sigmoidf": 20,
    "kernel.absf": 1,
    "kernel.const": 0,
    "kernel.view": 0,
    "kernel.alloc": 0,
    "kernel.call": 1,
    "secure.taint": 0,
    "secure.check": 1,
    "secure.declassify": 0,
    "secure.encrypt": 8,
    "secure.decrypt": 8,
    "secure.monitor": 1,
}

#: Resource class of each constrained operation kind.
RESOURCE_CLASS: Dict[str, str] = {
    "kernel.mulf": "fmul",
    "kernel.divf": "fdiv",
    "kernel.addf": "fadd",
    "kernel.subf": "fadd",
    "kernel.expf": "special",
    "kernel.sqrtf": "special",
    "kernel.tanhf": "special",
    "kernel.sigmoidf": "special",
    "kernel.load": "memport",
    "kernel.store": "memport",
    "secure.encrypt": "crypto",
    "secure.decrypt": "crypto",
}


@dataclass(frozen=True)
class ResourceBudget:
    """Available functional units per class for one accelerator."""

    fadd: int = 4
    fmul: int = 4
    fdiv: int = 2
    special: int = 4
    memport: int = 2  # ports per memory bank; scaled by the memory plan
    #: one crypto core per accelerator (synthesis instantiates one)
    crypto: ClassVar[int] = 1

    def limit(self, resource: str) -> int:
        """Unit count for a class; unconstrained classes are unlimited."""
        return getattr(self, resource, 10**9)

    def scaled(self, factor: int) -> "ResourceBudget":
        """Budget with functional units multiplied (unrolled bodies).

        Memory ports are NOT scaled: they are a physical property of
        the banks; only the memory plan (banking) adds ports.
        """
        check_positive("factor", factor)
        return replace(
            self, fadd=self.fadd * factor, fmul=self.fmul * factor,
            fdiv=self.fdiv * factor, special=self.special * factor)


def latency_of(node: DFGNode) -> int:
    """Cycle latency of one operation (unknown ops take 1 cycle)."""
    return OP_LATENCY.get(node.op.name, 1)


def chain_latency(loop: LoopNode) -> int:
    """Cycles of the loop-carried accumulation chain (0 = none)."""
    return loop.fact("chain_latency", lambda loop: sum(
        latency_of(node) for node in loop_carried_chain(loop)))


@dataclass
class Schedule:
    """The schedule of one loop body."""

    loop: Optional[LoopNode]
    start_cycle: Dict[int, int] = field(default_factory=dict)  # id(node)
    depth: int = 0  # body latency (cycles for one iteration)
    ii: int = 1  # initiation interval when pipelined
    pipelined: bool = False
    unroll: int = 1

    def cycles_for_trips(self, trips: int) -> int:
        """Total cycles to run ``trips`` iterations of this body."""
        if self.pipelined:
            return pipelined_cycles(
                trips, self.unroll, self.depth, self.ii)
        if trips <= 0:
            return 0
        return math.ceil(trips / self.unroll) * (self.depth + 1)


def schedule_loop(
    loop: LoopNode,
    budget: Optional[ResourceBudget] = None,
    memory_ports: Optional[Dict[int, int]] = None,
) -> Schedule:
    """Schedule an innermost loop body.

    ``memory_ports`` maps ``id(buffer value)`` to the port count its
    memory plan grants; buffers not listed get ``budget.memport``.
    The one-copy start cycles are kept in the loop's shared facts, by
    :func:`_binding_limits`, and shared by every schedule of the loop
    and its directed copies with the same binding limits: callers must
    not write them.
    """
    budget = budget or ResourceBudget()
    unroll = loop.unroll
    body = loop.body
    if not body:
        return Schedule(loop=loop, depth=1, ii=1,
                        pipelined=loop.pipelined, unroll=1)

    # Depth comes from scheduling ONE body copy against the per-copy
    # budget; all unroll effects (replicated demand vs shared ports
    # and unit pools) are folded into the initiation interval — the
    # standard modulo-scheduling decomposition.
    effective_budget = budget.scaled(unroll) if unroll > 1 else budget

    # One copy's start cycles depend on the limits that bind it alone,
    # so the copies of this loop share them per binding-limit set.
    schedules = loop.fact("list_schedules", lambda loop: {})
    limits = _binding_limits(
        loop.fact("issues", lambda loop: _issues(loop.body)),
        budget, memory_ports)
    start = schedules.get(limits)
    if start is None:
        mobility = loop.fact("mobility", lambda loop: _mobility(loop.body))
        start = schedules[limits] = _list_schedule(
            body, budget, memory_ports, 1, mobility)
    depth = 0
    for node in body:
        depth = max(depth, start[id(node)] + latency_of(node))

    schedule = Schedule(
        loop=loop,
        start_cycle=start,
        depth=max(depth, 1),
        pipelined=loop.pipelined,
        unroll=unroll,
    )
    if loop.pipelined:
        schedule.ii = _initiation_interval(
            loop, effective_budget, memory_ports)
    else:
        schedule.ii = schedule.depth
    if loop.interleave > 1:
        # reduction-tree epilogue over the partial sums
        schedule.depth += int(
            math.ceil(math.log2(loop.interleave))
        ) * OP_LATENCY["kernel.addf"]
    return schedule


def _resource_demand(loop: LoopNode) -> Dict[str, int]:
    """Issues per constrained unit class over ``loop.unroll`` copies."""
    per_copy = loop.fact("unit_issues", lambda loop: Counter(
        RESOURCE_CLASS[node.op.name] for node in loop.body
        if node.op.name in RESOURCE_CLASS))
    return {unit: count * loop.unroll for unit, count in per_copy.items()}


def _ports_for(node: DFGNode, budget: ResourceBudget,
               memory_ports: Optional[Dict[int, int]]) -> int:
    buffer = node.buffer()
    if buffer is not None and memory_ports:
        ports = memory_ports.get(id(buffer))
        if ports is not None:
            return ports
    return budget.memport


def _limit(node: DFGNode, key: str, budget: ResourceBudget,
           memory_ports: Optional[Dict[int, int]]) -> int:
    """Issue slots per cycle of ``node``'s resource ``key``."""
    if key.startswith("memport:"):
        return _ports_for(node, budget, memory_ports)
    return budget.limit(key)


def _issues(body: List[DFGNode]) -> Dict[str, Tuple[int, DFGNode]]:
    """Per resource key of a body: its issues and the first node that
    issues on it."""
    issues: Dict[str, Tuple[int, DFGNode]] = {}
    for node in body:
        key = _resource_key(node)
        if key is not None:
            count, first = issues.get(key, (0, node))
            issues[key] = (count + 1, first)
    return issues


def _binding_limits(
    issues: Dict[str, Tuple[int, DFGNode]],
    budget: ResourceBudget,
    memory_ports: Optional[Dict[int, int]],
) -> Tuple[Tuple[str, int], ...]:
    """Each resource key's limit, clamped to the body's own issues on
    it: a limit at or above them never fills a cycle of one body copy,
    so one copy's list schedule is the same for every budget and port
    map with these clamped limits."""
    return tuple(
        (key, min(count, _limit(node, key, budget, memory_ports)))
        for key, (count, node) in issues.items())


def _mobility(body: List[DFGNode]) -> Dict[int, int]:
    """ALAP minus ASAP start of each node, by ``id``."""
    asap = _asap(body)
    alap = _alap(body, max(asap[id(n)] + latency_of(n) for n in body))
    return {id(node): alap[id(node)] - asap[id(node)] for node in body}


def _list_schedule(
    body: List[DFGNode],
    budget: ResourceBudget,
    memory_ports: Optional[Dict[int, int]],
    unroll: int,
    mobility: Optional[Dict[int, int]] = None,
) -> Dict[int, int]:
    """Mobility-priority list scheduling; returns start cycles.

    Runs in O(n log n + E) with amortized O(1) resource placement,
    replacing the classical rescan-all-unscheduled sweep (kept as a
    reference implementation in the test suite) while producing
    byte-identical start cycles. Two invariants reproduce the sweep's
    placement order exactly:

    * Nodes are popped by ``(mobility, program index)`` priority from a
      *current-round* heap; a node whose readiness completes while the
      round is in flight joins the current round only if its priority
      is still ahead of the sweep cursor (i.e. greater than the
      just-scheduled node's priority), otherwise it waits in the
      *next-round* heap — exactly when the reference sweep would have
      reached it this pass vs. the next.
    * Resource placement asks a per-resource tracker for the first free
      cycle at or after the dependence-ready cycle, which is the fixed
      point the reference's ``cycle += 1`` probing converges to.

    ``mobility`` is :func:`_mobility` of the body, when the caller
    keeps it.
    """
    mobility = mobility or _mobility(body)

    start: Dict[int, int] = {}
    tracker = _ResourceTracker(budget, memory_ports, unroll)
    remaining = {id(node): len(node.predecessors) for node in body}
    current: List[tuple] = [
        (mobility[id(node)], node.index, node)
        for node in body
        if not node.predecessors
    ]
    heapq.heapify(current)
    upcoming: List[tuple] = []
    while current or upcoming:
        if not current:
            current, upcoming = upcoming, current
        priority = heapq.heappop(current)
        mob, index, node = priority
        ready_at = 0
        for predecessor in node.predecessors:
            ready_at = max(
                ready_at, start[id(predecessor)] + latency_of(predecessor)
            )
        start[id(node)] = tracker.place(node, ready_at)
        for successor in node.successors:
            remaining[id(successor)] -= 1
            if remaining[id(successor)] == 0:
                entry = (
                    mobility[id(successor)], successor.index, successor
                )
                if entry[:2] > (mob, index):
                    heapq.heappush(current, entry)
                else:
                    heapq.heappush(upcoming, entry)
    if len(start) != len(body):
        raise SchedulingError("dependence cycle in loop body")
    return start


class _ResourceTracker:
    """Per-resource issue-slot occupancy with next-free-cycle jumping.

    :meth:`place` returns the earliest cycle at or after ``ready_at``
    where the node's resource has a free issue slot. Cycles that fill
    up are linked into a path-compressed jump chain, so a query lands
    on the next free cycle in amortized near-constant time instead of
    probing every occupied cycle one by one. A demand that can never
    fit (``unroll`` concurrent issues exceeding the per-cycle limit)
    raises :class:`SchedulingError` naming the oversubscribed resource
    immediately, rather than after exhausting a probe guard.
    """

    #: Defensive schedule-horizon ceiling (matches the old probe guard).
    MAX_CYCLE = 100_000

    def __init__(
        self,
        budget: ResourceBudget,
        memory_ports: Optional[Dict[int, int]],
        unroll: int,
    ):
        self.budget = budget
        self.memory_ports = memory_ports
        self.unroll = unroll
        # used[key][cycle] -> issue slots taken at that cycle
        self._used: Dict[str, Dict[int, int]] = {}
        # next_free[key][cycle] -> known-full cycle's forward pointer
        self._next_free: Dict[str, Dict[int, int]] = {}

    @staticmethod
    def _describe(node: DFGNode, key: str) -> str:
        """Human-readable resource name for error messages."""
        if key.startswith("memport:"):
            buffer = node.buffer()
            name = getattr(buffer, "name", None)
            return f"memport(%{name})" if name else "memport"
        return key

    def place(self, node: DFGNode, ready_at: int) -> int:
        key = _resource_key(node)
        if key is None:
            return ready_at
        limit = _limit(node, key, self.budget, self.memory_ports)
        if self.unroll > limit:
            raise SchedulingError(
                f"cannot place {node.op.name}: resource "
                f"{self._describe(node, key)!r} oversubscribed "
                f"({self.unroll} concurrent issues per cycle vs "
                f"limit {limit})"
            )
        used = self._used.setdefault(key, {})
        jump = self._next_free.setdefault(key, {})
        cycle = ready_at
        full_path: List[int] = []
        while True:
            target = jump.get(cycle)
            if target is not None:
                full_path.append(cycle)
                cycle = target
                continue
            if used.get(cycle, 0) + self.unroll <= limit:
                break
            full_path.append(cycle)
            cycle += 1
        for full in full_path:  # path compression
            jump[full] = cycle
        if cycle > self.MAX_CYCLE:
            raise SchedulingError(
                f"cannot place {node.op.name}: resource "
                f"{self._describe(node, key)!r} saturated past "
                f"cycle {self.MAX_CYCLE}"
            )
        used[cycle] = used.get(cycle, 0) + self.unroll
        if used[cycle] + self.unroll > limit:
            jump[cycle] = cycle + 1
        return cycle


def _resource_key(node: DFGNode) -> Optional[str]:
    resource = RESOURCE_CLASS.get(node.op.name)
    if resource is None:
        return None
    if resource == "memport":
        buffer = node.buffer()
        return f"memport:{id(buffer)}"
    return resource


def _asap(body: List[DFGNode]) -> Dict[int, int]:
    start: Dict[int, int] = {}
    for node in body:  # body is in topological (program) order
        ready = 0
        for predecessor in node.predecessors:
            ready = max(
                ready, start[id(predecessor)] + latency_of(predecessor)
            )
        start[id(node)] = ready
    return start


def _alap(body: List[DFGNode], horizon: int) -> Dict[int, int]:
    finish: Dict[int, int] = {}
    for node in reversed(body):
        latest = horizon
        for successor in node.successors:
            latest = min(latest, finish[id(successor)])
        finish[id(node)] = latest - latency_of(node)
    return finish


def _initiation_interval(
    loop: LoopNode,
    budget: ResourceBudget,
    memory_ports: Optional[Dict[int, int]],
) -> int:
    memory_ports = memory_ports or {}
    ii, _, _ = initiation_interval(
        loop.pipeline_ii,
        [(resource, demand, budget.limit(resource))
         for resource, demand in _resource_demand(loop).items()
         if resource != "memport"],
        # copies = the raw directive, not clamped to the trip count
        [(id(buffer), port_demand(count, loop.unroll),
          memory_ports.get(id(buffer), budget.memport))
         for buffer, count in loop.accesses.items()],
        chain_latency(loop),
        # Accumulation interleaving (see passes/interleave.py): I
        # partial sums stretch the recurrence distance to I iterations.
        loop.interleave,
    )
    return ii


def nest_cycles(loop: LoopNode, schedules: Dict[int, Schedule]) -> int:
    """Total cycles for a loop nest given innermost schedules.

    Non-innermost loops contribute trip-count multipliers plus 2 cycles
    of control overhead per iteration.
    """
    if loop.op is not None and loop.is_innermost:
        schedule = schedules[id(loop)]
        return schedule.cycles_for_trips(loop.trip_count)
    inner = 0
    for child in loop.children:
        inner += nest_cycles(child, schedules)
    # straight-line ops at this level
    inner += sum(latency_of(node) for node in loop.body)
    if loop.op is None:
        return inner
    return loop.trip_count * (inner + 2)
