"""Workers: execution slots bound to platform nodes.

A worker advertises CPU slots and holds a local store of data objects;
the scheduler moves objects between workers over the ecosystem's links
when a task runs away from its inputs. A worker holds only what the
engine reads to place and time a task; what it did during a run (its
tasks, their durations, its busy share) is read from the run's
:class:`~repro.workflow.tracing.ExecutionTrace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set

from repro.errors import WorkflowError
from repro.platform.node import Node
from repro.utils.validation import check_positive


@dataclass
class Worker:
    """One worker process on a platform node: its slots and speed,
    and the run state :meth:`reset` clears on a restart (busy slots,
    object store, slowdown)."""

    name: str
    node_name: str
    cpus: int = 4
    speed_factor: float = 1.0  # relative to the reference core
    node: Optional[Node] = None
    store: Set[str] = field(default_factory=set)
    busy_cpus: int = field(default=0, init=False)
    #: >1.0 while the worker is a straggler (chaos-injected slowdown).
    slowdown: float = field(default=1.0, init=False)

    def __post_init__(self):
        check_positive("cpus", self.cpus)
        check_positive("speed_factor", self.speed_factor)

    @property
    def free_cpus(self) -> int:
        """Slots currently available."""
        return self.cpus - self.busy_cpus

    def can_run(self, cpus: int) -> bool:
        """True when enough free slots exist."""
        return self.free_cpus >= cpus

    def acquire(self, cpus: int) -> None:
        """Reserve slots for a task.

        Raises :class:`WorkflowError` on a non-positive request (which
        would silently corrupt the accounting) or when the request
        exceeds the free slots.
        """
        if cpus <= 0:
            raise WorkflowError(
                f"worker {self.name!r}: acquire of {cpus} cpus; the "
                f"request must be positive"
            )
        if not self.can_run(cpus):
            raise WorkflowError(
                f"worker {self.name!r}: requested {cpus} cpus, only "
                f"{self.free_cpus} free"
            )
        self.busy_cpus += cpus

    def release(self, cpus: int) -> None:
        """Return slots after a task finishes.

        Raises :class:`WorkflowError` on a non-positive count (which
        would silently inflate capacity) or when releasing more slots
        than are busy.
        """
        if cpus <= 0:
            raise WorkflowError(
                f"worker {self.name!r}: release of {cpus} cpus; the "
                f"count must be positive"
            )
        if cpus > self.busy_cpus:
            raise WorkflowError(
                f"worker {self.name!r}: releasing {cpus} cpus but only "
                f"{self.busy_cpus} busy"
            )
        self.busy_cpus -= cpus

    def reset(self) -> None:
        """Restart bookkeeping: empty store, all slots free, no slowdown.

        Called when a crashed worker process is re-admitted to the
        pool; its in-memory object store did not survive the crash.
        """
        self.store.clear()
        self.busy_cpus = 0
        self.slowdown = 1.0

    def holds(self, object_name: str) -> bool:
        """True when the object is in this worker's local store."""
        return object_name in self.store

    def execution_time(self, duration_s: float) -> float:
        """Wall time of a task with nominal duration on this worker; a
        straggler's slowdown stretches the nominal duration."""
        return duration_s * self.slowdown / self.speed_factor
