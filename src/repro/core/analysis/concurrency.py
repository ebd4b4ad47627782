"""Static concurrency analysis: races, deadlocks, nondeterminism.

The workflow runtime schedules any tasks with no dependency path
between them concurrently, so every pair of *unordered* accesses to a
shared :class:`~repro.workflow.graph.DataObject` is a potential race,
and every circular resource-acquisition pattern between unordered
tasks is a potential deadlock. Following the static half of the
RacerD / ThreadSanitizer split, this module proves hazards *possible*
over the plan alone; the dynamic half
(:mod:`repro.sanitize`) confirms them on a concrete schedule.

Race checks (all over the happens-before skeleton induced by
producer -> consumer dependency edges, which — like reachability,
b-levels and the resource-order cycle search — come from
:mod:`repro.utils.dag`, the rule the engine schedules by):

* RACE001 — two unordered tasks both write one object (lost update);
* RACE002 — a task reads an object an unordered task writes;
* RACE003 — a task reads several objects that one unordered task
  writes: even atomic per-object accesses can observe a torn
  multi-object state;
* RACE004 — a task declared ``order_sensitive`` consumes the outputs
  of unordered producers with equal static priority (b-level): the
  scheduler's tie-break decides the observable result.

Deadlock checks (against declared :class:`ResourceSpec` capacities;
tasks acquire the units of their ``acquires`` list in order, one unit
per simulator request, and hold everything until they finish):

* DL001 — the resource-allocation-order graph has a cycle whose edges
  come from at least two unordered tasks (lock-order inversion);
* DL002 — a request names an unknown resource or more units than the
  resource's total capacity: it can never be granted;
* DL003 — a set of mutually-unordered tasks can each hold part of a
  resource while waiting for the rest: possible when
  ``sum(need_i - 1) >= capacity`` (generalized dining philosophers).

Use :func:`analyze_concurrency` over explicit specs,
:func:`check_task_graph_concurrency` over a built
:class:`~repro.workflow.graph.TaskGraph`,
:func:`lint_concurrency_spec` over JSON workflow specs (the ``repro
lint`` path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.analysis.wfcheck import (
    TaskSpec,
    spec_entries,
    tasks_from_graph,
    tasks_from_spec,
)
from repro.diagnostics import Diagnostics
from repro.utils import dag

#: Check names accepted by ``analyze_concurrency(checks=...)``.
CONCURRENCY_CHECKS = ("race", "dl")


@dataclass(frozen=True)
class ResourceSpec:
    """One contended platform resource with a finite capacity."""

    name: str
    capacity: int = 1


# ----------------------------------------------------------------------
# happens-before skeleton
# ----------------------------------------------------------------------


class _Order:
    """Reachability over the dependency edges of a task set."""

    def __init__(self, tasks: Sequence[TaskSpec]):
        self.tasks = {task.name: task for task in tasks}
        self.producer: Dict[str, str] = {}
        for task in tasks:
            for obj in task.outputs:
                self.producer.setdefault(obj, task.name)
        _, self.edges = dag.dependency_edges(
            {task.name: task.all_reads() for task in tasks},
            self.producer,
        )
        self._descendants = {
            name: dag.reachable_from(self.edges, successors)
            for name, successors in self.edges.items()
        }

    def ordered(self, a: str, b: str) -> bool:
        """True when a dependency path orders the two tasks."""
        return (
            b in self._descendants.get(a, ())
            or a in self._descendants.get(b, ())
        )

    def unordered(self, a: str, b: str) -> bool:
        """True when the tasks may run concurrently."""
        return a != b and not self.ordered(a, b)


# ----------------------------------------------------------------------
# race checks
# ----------------------------------------------------------------------


def _check_races(
    tasks: Sequence[TaskSpec],
    order: _Order,
    name: str,
    diagnostics: Diagnostics,
) -> None:
    writers: Dict[str, List[str]] = {}
    readers: Dict[str, List[str]] = {}
    for task in tasks:
        for obj in task.all_writes():
            writers.setdefault(obj, []).append(task.name)
        for obj in task.inputs:
            readers.setdefault(obj, []).append(task.name)

    # RACE001: unordered write-write pairs per object.
    for obj in sorted(writers):
        names = writers[obj]
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                if order.unordered(a, b):
                    first, second = sorted((a, b))
                    diagnostics.error(
                        "RACE001",
                        f"tasks {first!r} and {second!r} both write "
                        f"{obj!r} with no dependency path between "
                        f"them: last writer wins",
                        anchor=f"{name}/{obj}",
                        analysis="concurrency",
                    )

    # RACE002: unordered read-write pairs per object.
    for obj in sorted(writers):
        for reader in readers.get(obj, ()):
            task = order.tasks[reader]
            if obj in task.updates:
                continue  # updater vs writer is RACE001
            for writer in writers[obj]:
                if order.unordered(writer, reader):
                    diagnostics.error(
                        "RACE002",
                        f"task {reader!r} reads {obj!r} while "
                        f"unordered task {writer!r} writes it",
                        anchor=f"{name}/{obj}",
                        analysis="concurrency",
                    )

    # RACE003: one unordered writer covering >= 2 of a task's reads.
    for task in sorted(tasks, key=lambda t: t.name):
        read_set = set(task.inputs)
        for other in sorted(tasks, key=lambda t: t.name):
            if not order.unordered(task.name, other.name):
                continue
            torn = sorted(read_set.intersection(other.all_writes()))
            if len(torn) >= 2:
                diagnostics.error(
                    "RACE003",
                    f"task {task.name!r} reads {torn} which unordered "
                    f"task {other.name!r} writes: a torn multi-object "
                    f"state is observable",
                    anchor=f"{name}/{task.name}",
                    analysis="concurrency",
                )

    # RACE004: order-sensitive consumers of tied unordered producers.
    levels = dag.bottom_levels(  # static priority, as the scheduler ranks
        order.edges, {task.name: task.duration_s for task in tasks},
    )
    for task in sorted(tasks, key=lambda t: t.name):
        if not task.order_sensitive:
            continue
        producers = sorted({
            order.producer[obj]
            for obj in task.all_reads()
            if obj in order.producer
            and order.producer[obj] != task.name
        })
        for i, a in enumerate(producers):
            for b in producers[i + 1:]:
                if (
                    order.unordered(a, b)
                    and abs(levels[a] - levels[b]) < 1e-12
                ):
                    diagnostics.error(
                        "RACE004",
                        f"order-sensitive task {task.name!r} consumes "
                        f"unordered producers {a!r} and {b!r} with "
                        f"equal priority: the scheduler tie-break "
                        f"decides the result",
                        anchor=f"{name}/{task.name}",
                        analysis="concurrency",
                    )


# ----------------------------------------------------------------------
# deadlock checks
# ----------------------------------------------------------------------


def _check_deadlocks(
    tasks: Sequence[TaskSpec],
    resources: Sequence[ResourceSpec],
    order: _Order,
    name: str,
    diagnostics: Diagnostics,
) -> None:
    capacities = {spec.name: spec.capacity for spec in resources}

    # DL002: unsatisfiable requests.
    for task in sorted(tasks, key=lambda t: t.name):
        need: Dict[str, int] = {}
        for resource, units in task.acquires:
            need[resource] = need.get(resource, 0) + units
        for resource in sorted(need):
            if resource not in capacities:
                diagnostics.error(
                    "DL002",
                    f"task {task.name!r} acquires undeclared resource "
                    f"{resource!r}: the request can never be granted",
                    anchor=f"{name}/{task.name}",
                    analysis="concurrency",
                )
            elif need[resource] > capacities[resource]:
                diagnostics.error(
                    "DL002",
                    f"task {task.name!r} needs {need[resource]} units "
                    f"of {resource!r} but its capacity is "
                    f"{capacities[resource]}: permanent stall",
                    anchor=f"{name}/{task.name}",
                    analysis="concurrency",
                )

    # DL001: cycles in the resource-allocation-order graph whose edges
    # come from at least two unordered tasks.
    order_edges: Dict[str, Set[str]] = {}
    edge_owners: Dict[Tuple[str, str], Set[str]] = {}
    for task in tasks:
        held = [resource for resource, _units in task.acquires]
        for i, first in enumerate(held):
            for second in held[i + 1:]:
                if first == second:
                    continue
                order_edges.setdefault(first, set()).add(second)
                order_edges.setdefault(second, set())
                edge_owners.setdefault(
                    (first, second), set()
                ).add(task.name)
    cycle = dag.find_cycle({
        resource: sorted(later) for resource, later in order_edges.items()
    })
    if cycle:
        owners: Set[str] = set()
        for first, second in zip(cycle, cycle[1:]):
            owners.update(edge_owners.get((first, second), ()))
        owner_list = sorted(owners)
        concurrent = any(
            order.unordered(a, b)
            for i, a in enumerate(owner_list)
            for b in owner_list[i + 1:]
        )
        if concurrent:
            rendered = " -> ".join(cycle)
            diagnostics.error(
                "DL001",
                f"resource acquisition order {rendered} is circular "
                f"between concurrent tasks {owner_list}: lock-order "
                f"inversion can deadlock",
                anchor=f"{name}/{cycle[0]}",
                analysis="concurrency",
            )

    # DL003: incremental multi-unit exhaustion per resource. A set S
    # of mutually-unordered tasks deadlocks when every unit can be
    # held by a task that still waits: sum(need - 1) >= capacity.
    for resource in sorted(capacities):
        capacity = capacities[resource]
        claimants: List[Tuple[str, int]] = []
        for task in sorted(tasks, key=lambda t: t.name):
            need = sum(
                units for res, units in task.acquires
                if res == resource
            )
            if need >= 2 and need <= capacity:
                claimants.append((task.name, need))
        hazard = _hold_wait_set(claimants, capacity, order)
        if hazard:
            names_, needs = zip(*hazard)
            diagnostics.error(
                "DL003",
                f"concurrent tasks {list(names_)} need "
                f"{list(needs)} units of {resource!r} "
                f"(capacity {capacity}) acquired incrementally: "
                f"partial grants can strand every holder waiting",
                anchor=f"{name}/{resource}",
                analysis="concurrency",
            )


def _hold_wait_set(
    claimants: List[Tuple[str, int]],
    capacity: int,
    order: _Order,
) -> List[Tuple[str, int]]:
    """Smallest-first set of mutually-unordered claimants that can
    strand the resource (``sum(need - 1) >= capacity``), or []."""
    # pairwise first: the most common and easiest-to-explain case
    for i, (a, need_a) in enumerate(claimants):
        for b, need_b in claimants[i + 1:]:
            if (
                order.unordered(a, b)
                and (need_a - 1) + (need_b - 1) >= capacity
            ):
                return [(a, need_a), (b, need_b)]
    # greedy antichain for larger sets
    chosen: List[Tuple[str, int]] = []
    for name, need in claimants:
        if all(order.unordered(name, other) for other, _ in chosen):
            chosen.append((name, need))
    if (
        len(chosen) >= 2
        and sum(need - 1 for _, need in chosen) >= capacity
    ):
        return chosen
    return []


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


def analyze_concurrency(
    tasks: Sequence[TaskSpec],
    resources: Sequence[ResourceSpec] = (),
    name: str = "workflow",
    diagnostics: Optional[Diagnostics] = None,
    checks: Optional[Iterable[str]] = None,
) -> Diagnostics:
    """Run the race and deadlock checks; returns the diagnostics.

    ``checks`` restricts the run to a subset of
    :data:`CONCURRENCY_CHECKS` (``race``, ``dl``).
    """
    diagnostics = diagnostics if diagnostics is not None else Diagnostics()
    selected = (
        set(checks) if checks is not None else set(CONCURRENCY_CHECKS)
    )
    unknown = selected - set(CONCURRENCY_CHECKS)
    if unknown:
        raise ValueError(
            f"unknown concurrency checks {sorted(unknown)}; expected a "
            f"subset of {list(CONCURRENCY_CHECKS)}"
        )
    order = _Order(tasks)
    if "race" in selected:
        _check_races(tasks, order, name, diagnostics)
    if "dl" in selected:
        _check_deadlocks(tasks, resources, order, name, diagnostics)
    return diagnostics


def check_task_graph_concurrency(graph) -> Diagnostics:
    """Concurrency-lint a built task graph (it declares no resources)."""
    return analyze_concurrency(
        tasks_from_graph(graph), name=getattr(graph, "name", "workflow"),
    )


def lint_concurrency_spec(
    spec: Dict,
    diagnostics: Optional[Diagnostics] = None,
    checks: Optional[Iterable[str]] = None,
) -> Diagnostics:
    """Concurrency-lint a JSON-style workflow description.

    Beyond the shape :func:`~repro.core.analysis.wfcheck.
    lint_workflow_spec` accepts, tasks may declare ``updates`` (object
    names rewritten in place), ``acquires`` (ordered
    ``[["resource", units], ...]`` or ``[{"resource": ..., "units":
    ...}]``) and ``order_sensitive``; a top-level ``resources`` list
    (``[{"name": ..., "capacity": ...}]``) declares capacities.
    """
    diagnostics = diagnostics if diagnostics is not None else Diagnostics()
    resources = [
        ResourceSpec(**values) for _, values in spec_entries(
            spec, "resources", "r", {"capacity": (1, int, "an integer")},
            diagnostics)
    ]
    return analyze_concurrency(
        tasks_from_spec(spec, diagnostics),
        resources,
        name=str(spec.get("name", "workflow")),
        diagnostics=diagnostics,
        checks=checks,
    )
