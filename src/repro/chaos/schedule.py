"""Seeded, deterministic chaos schedules.

:func:`generate_schedule` draws a mix of faults from every class with a
``random.Random(seed)``; the same (graph, workers, seed, config) always
produces the identical :class:`ChaosSchedule`, which is what makes a
chaos run replayable from its seed pair alone.

Generated schedules are *survivable by construction*: crashes and
reconfiguration failures always come with a restart/repair, link faults
always heal, and stragglers always recover — so the liveness invariant
(every task eventually completes) is a property of the runtime, not of
schedule luck.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, ClassVar, List, Optional, Sequence, Union

from repro.chaos.faults import (
    ANY_LINK,
    LinkFault,
    ReconfigFault,
    StragglerFault,
    TaskFault,
    WorkerCrash,
)
from repro.errors import ChaosError

if TYPE_CHECKING:
    # for the annotation alone: the engine imports this module, so the
    # fault vocabulary loads nothing from the workflow package
    from repro.workflow.graph import TaskGraph

Fault = Union[WorkerCrash, LinkFault, ReconfigFault, StragglerFault,
              TaskFault]


@dataclass(frozen=True)
class ChaosConfig:
    """How many faults of each class to draw; the bounds every schedule
    draws them within are class constants. Fault times are drawn from
    ``[0, horizon)``, the horizon being the graph's serial work over
    the pool size (at least 1 s)."""

    crashes: int = 1
    link_faults: int = 1
    reconfig_faults: int = 1
    stragglers: int = 1
    task_faults: int = 1
    min_restart_s: ClassVar[float] = 0.3
    max_restart_s: ClassVar[float] = 1.5
    max_link_duration_s: ClassVar[float] = 1.5
    max_repair_s: ClassVar[float] = 1.0
    max_straggler_duration_s: ClassVar[float] = 2.0
    max_straggler_slowdown: ClassVar[float] = 6.0
    max_task_failures: ClassVar[int] = 2
    partition_probability: ClassVar[float] = 0.5

    def __post_init__(self):
        for name in ("crashes", "link_faults", "reconfig_faults",
                     "stragglers", "task_faults"):
            count = getattr(self, name)
            if count < 0:
                raise ChaosError(
                    f"{name} must be non-negative, got {count}")


@dataclass
class ChaosSchedule:
    """An ordered list of faults plus the seed that produced it."""

    seed: int
    faults: List[Fault] = field(default_factory=list)

    def task_faults(self) -> List[TaskFault]:
        """Faults that manifest on task attempts."""
        return [f for f in self.faults if isinstance(f, TaskFault)]

    def counts_by_kind(self) -> dict:
        """Scheduled fault count per fault class."""
        counts: dict = {}
        for fault in self.faults:
            counts[fault.kind] = counts.get(fault.kind, 0) + 1
        return counts

    def describe(self) -> str:
        """One-line summary for logs and the CLI."""
        counts = self.counts_by_kind()
        parts = [f"{counts[kind]} {kind}" for kind in sorted(counts)]
        return f"seed={self.seed}: " + (", ".join(parts) or "no faults")


def generate_schedule(
    graph: TaskGraph,
    workers: Sequence[str],
    seed: int,
    config: Optional[ChaosConfig] = None,
) -> ChaosSchedule:
    """Draw a deterministic fault schedule for a run.

    ``workers`` are worker names eligible for crash/reconfig/straggler
    faults; link faults target the server's default staging path
    (:data:`~repro.chaos.faults.ANY_LINK`).
    """
    config = config or ChaosConfig()
    if not workers:
        raise ChaosError("cannot generate a schedule for zero workers")
    rng = random.Random(seed)
    horizon = max(1.0, graph.total_work() / max(1, len(workers)))
    worker_names = list(workers)
    faults: List[Fault] = []

    for _ in range(config.crashes):
        faults.append(WorkerCrash(
            worker=rng.choice(worker_names),
            at_time=rng.uniform(0.0, horizon),
            restart_after=rng.uniform(
                config.min_restart_s, config.max_restart_s
            ),
        ))

    for _ in range(config.link_faults):
        # a draw from a one-pair list: it still advances ``rng``, so
        # every seed keeps the schedule it always had
        node_a, node_b = rng.choice([(ANY_LINK, ANY_LINK)])
        partition = rng.random() < config.partition_probability
        faults.append(LinkFault(
            node_a=node_a,
            node_b=node_b,
            at_time=rng.uniform(0.0, horizon),
            duration_s=rng.uniform(0.2, config.max_link_duration_s),
            bandwidth_factor=1.0 if partition
            else rng.uniform(0.01, 0.25),
            latency_add_s=0.0 if partition else rng.uniform(0.0, 0.05),
            partition=partition,
        ))

    for _ in range(config.reconfig_faults):
        faults.append(ReconfigFault(
            worker=rng.choice(worker_names),
            at_time=rng.uniform(0.0, horizon),
            repair_s=rng.uniform(0.1, config.max_repair_s),
        ))

    for _ in range(config.stragglers):
        faults.append(StragglerFault(
            worker=rng.choice(worker_names),
            at_time=rng.uniform(0.0, horizon),
            duration_s=rng.uniform(
                0.3, config.max_straggler_duration_s
            ),
            slowdown=rng.uniform(2.0, config.max_straggler_slowdown),
        ))

    task_names = sorted(graph.tasks)
    picked = rng.sample(
        task_names, min(config.task_faults, len(task_names))
    )
    for task_name in picked:
        faults.append(TaskFault(
            task=task_name,
            failures=rng.randint(1, config.max_task_failures),
        ))

    return ChaosSchedule(seed=seed, faults=faults)
