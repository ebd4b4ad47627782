"""Scheduling policies for the workflow engine.

HyperLoom schedules by *b-level* (longest path to a sink) to keep the
critical path busy; the paper claims the platform "improves resource
utilization and reduces the overall workflow processing time". To make
that claim testable, three policies share one interface:

* :class:`FIFOScheduler` — arrival order, first free worker (baseline);
* :class:`BLevelScheduler` — critical-path-first;
* :class:`LocalityScheduler` — minimize input movement, b-level tie-break.

**Tie-break contract**: a policy does not order the ready queue, it
states each task's :meth:`~SchedulerPolicy.priority` once. The engine
keeps the queue sorted by ``(priority, arrival sequence)`` — a task
gets its sequence number when it is queued (in topological order at
start, completion order after; a retried task arrives anew, a queued
task never moves) — and ``select`` walks the names it is given in that
order. That pair *is* the determinism contract: identical runs queue,
and so dispatch, identically, which is what makes chaos replays and
sanitizer reports byte-identical. It is also why an
``order_sensitive`` task consuming equal-b-level unordered producers
is only a *hazard* (RACE004) rather than observed flakiness: the
nondeterminism surfaces when task durations or the worker pool
change, not between replays.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.workflow.graph import TaskGraph
from repro.workflow.worker import Worker


class SchedulerPolicy:
    """Interface: pick one (task, worker) assignment or None."""

    name = "abstract"

    def __init__(self):
        self._b_levels: Optional[Dict[str, float]] = None

    def prepare(self, graph: TaskGraph) -> None:
        """Called once before execution starts."""
        self._b_levels = graph.b_levels()

    def priority(self, task_name: str) -> float:
        """Queue rank of a task, smaller first (critical path first);
        the engine reads it once, when the task is queued."""
        return -self._b_levels[task_name]

    def select(
        self,
        ready: List[str],
        workers: List[Worker],
        graph: TaskGraph,
        locations: Dict[str, str],
        transfer_cost,
    ) -> Optional[Tuple[str, Worker]]:
        """Choose an assignment among ``ready`` — the engine's queue
        in dispatch order, to be read and not kept or changed;
        ``transfer_cost(task, worker)`` gives the staging cost in
        seconds for placing the task there."""
        raise NotImplementedError

    @staticmethod
    def _fitting(ready: List[str], workers: List[Worker],
                 graph: TaskGraph
                 ) -> Iterator[Tuple[str, List[Worker]]]:
        """The ready tasks some worker can take now, in the order
        given, each with the workers that fit it (for the policies that
        weigh every fitting worker: FIFO and locality).

        Capacity is read once per call: nothing is yielded when no
        worker has a free cpu, tasks wider than the widest free worker
        are passed over, and the fitting workers are worked out once
        per distinct ``cpus`` demand."""
        widest = max((worker.free_cpus for worker in workers), default=0)
        if widest <= 0:
            return
        eligible: Dict[int, List[Worker]] = {}
        for task_name in ready:
            cpus = graph.tasks[task_name].cpus
            if cpus > widest:
                continue
            if cpus not in eligible:
                eligible[cpus] = [w for w in workers if w.can_run(cpus)]
            yield task_name, eligible[cpus]


class FIFOScheduler(SchedulerPolicy):
    """First ready task to the first worker with capacity."""

    name = "fifo"

    def priority(self, task_name):
        """Every task ranks alike: arrival order decides."""
        return 0.0

    def select(self, ready, workers, graph, locations, transfer_cost):
        """Assign the earliest-ready task to the first fitting worker."""
        for task_name, eligible in self._fitting(ready, workers, graph):
            return task_name, eligible[0]
        return None


class BLevelScheduler(SchedulerPolicy):
    """Largest b-level first; worker with the most free slots."""

    name = "b-level"

    def select(self, ready, workers, graph, locations, transfer_cost):
        """Assign the most critical ready task that fits to the freest
        worker (the fastest among those, the first in pool order on a
        tie). One pass over the pool: the freest worker fits every task
        that any worker fits."""
        best, most, speed = None, 0, 0.0
        for worker in workers:
            free = worker.free_cpus
            if free > most or free == most > 0 and worker.speed_factor > speed:
                best, most, speed = worker, free, worker.speed_factor
        if best is not None:
            for task_name in ready:
                if graph.tasks[task_name].cpus <= most:
                    return task_name, best
        return None


class LocalityScheduler(SchedulerPolicy):
    """Minimize staging cost; break ties toward the critical path."""

    name = "locality"

    def select(self, ready, workers, graph, locations, transfer_cost):
        """Assign the cheapest-to-stage (task, worker) pair."""
        best_choice: Optional[Tuple[str, Worker]] = None
        best_key: Optional[Tuple[float, float]] = None
        for task_name, eligible in self._fitting(ready, workers, graph):
            for worker in eligible:
                cost = transfer_cost(task_name, worker)
                key = (cost, -self._b_levels[task_name])
                if best_key is None or key < best_key:
                    best_key = key
                    best_choice = (task_name, worker)
            # Only consider lower-priority tasks if nothing eligible yet:
            if best_key[0] == 0.0:
                break
        return best_choice


#: Every policy by the name ``make_policy`` and ``--policy`` take.
POLICIES = {
    "b-level": BLevelScheduler,
    "fifo": FIFOScheduler,
    "locality": LocalityScheduler,
}


def make_policy(name: str) -> SchedulerPolicy:
    """Factory by policy name."""
    if name not in POLICIES:
        raise ValueError(
            f"unknown policy {name!r}; expected one of {list(POLICIES)}"
        )
    return POLICIES[name]()
