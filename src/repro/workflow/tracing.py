"""Execution traces of workflow runs.

Besides per-task timing (:class:`TaskRecord`), a trace records every
injected fault (:class:`FaultRecord`) and every recovery action the
server took in response (:class:`RecoveryRecord`), so a chaos run is
fully auditable: each fault in a schedule must show up here, and the
whole trace serializes deterministically for replay comparison.

Since the observability layer landed, the servers do not build this
record directly: they emit spans and instants into a simulated-time
:class:`~repro.obs.tracer.Tracer`, and :meth:`ExecutionTrace.from_tracer`
derives the trace as a *view* over those events. The categories the
view consumes are :data:`TASK_CATEGORY`, :data:`FAULT_CATEGORY` and
:data:`RECOVERY_CATEGORY`; everything else in the tracer (transfer
spans, scheduler decisions, queue-depth counters) is extra detail that
only shows up in the exported Chrome trace. The serialized form — and
therefore :meth:`ExecutionTrace.digest` — is unchanged from the
pre-tracer implementation.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

#: Tracer categories the :meth:`ExecutionTrace.from_tracer` view maps.
TASK_CATEGORY = "workflow.task"
FAULT_CATEGORY = "workflow.fault"
RECOVERY_CATEGORY = "workflow.recovery"


@dataclass
class TaskRecord:
    """Timing of one executed task."""

    task: str
    worker: str
    ready_at: float
    start: float
    end: float
    transfer_seconds: float = 0.0
    bytes_moved: int = 0

    @property
    def duration(self) -> float:
        """Wall duration including input staging."""
        return self.end - self.start


@dataclass
class FaultRecord:
    """One injected fault, as observed by the runtime.

    ``kind`` is the fault class (``worker-crash``, ``link-degradation``,
    ``link-partition``, ``reconfig-failure``, ``straggler``,
    ``task-fault``); ``target`` names the worker, link (``a<->b``) or
    task hit; ``detail`` carries class-specific parameters.
    """

    kind: str
    target: str
    time: float
    detail: str = ""


@dataclass
class RecoveryRecord:
    """One recovery action the resilient server took.

    ``action`` is one of ``requeue``, ``retry``, ``backoff``,
    ``lineage``, ``refetch``, ``worker-restart``, ``worker-readmit``,
    ``link-heal``, ``straggler-clear``.
    """

    action: str
    target: str
    time: float
    detail: str = ""


@dataclass
class ExecutionTrace:
    """The full record of one workflow execution."""

    graph_name: str
    policy: str
    records: List[TaskRecord] = field(default_factory=list)
    faults: List[FaultRecord] = field(default_factory=list)
    recoveries: List[RecoveryRecord] = field(default_factory=list)
    makespan: float = 0.0
    bytes_moved: int = 0

    @classmethod
    def from_tracer(cls, tracer, graph_name: str,
                    policy: str) -> "ExecutionTrace":
        """Build the trace as a view over a server's tracer events.

        Walks the tracer's events in emission order and maps complete
        spans of category :data:`TASK_CATEGORY` to task records and
        instants of :data:`FAULT_CATEGORY` / :data:`RECOVERY_CATEGORY`
        to fault/recovery records (an instant's arguments are its
        record's fields); the makespan is the latest task end (0.0
        without one) and the bytes moved their sum. Because the servers emit each event
        at exactly the point the old implementation appended the
        matching record, the resulting lists — and the serialized
        bytes — are identical to the pre-tracer trace.
        """
        trace = cls(graph_name=graph_name, policy=policy)
        records = trace.records
        for event in tracer.events:
            if event.phase == "X" and event.category == TASK_CATEGORY:
                args = event.args
                records.append(TaskRecord(
                    args["task"], args["worker"], args["ready_at"],
                    args["start"], args["end"], args["transfer_seconds"],
                    args["bytes_moved"],
                ))
            elif event.phase == "i" and event.category == FAULT_CATEGORY:
                trace.faults.append(FaultRecord(**event.args))
            elif (event.phase == "i"
                  and event.category == RECOVERY_CATEGORY):
                trace.recoveries.append(RecoveryRecord(**event.args))
        trace.makespan = max([0.0] + [record.end for record in records])
        trace.bytes_moved = sum(record.bytes_moved for record in records)
        return trace

    def faults_by_kind(self) -> Dict[str, int]:
        """Injected fault count per fault class."""
        return dict(Counter(fault.kind for fault in self.faults))

    def recoveries_by_action(self) -> Dict[str, int]:
        """Recovery action count per action type."""
        return dict(Counter(recovery.action for recovery in self.recoveries))

    def to_dict(self) -> Dict:
        """Plain-data form of the whole trace (records in order).

        The three record types are flat — no nested dataclass or
        container to copy — so a record's dict is a copy of its fields.
        """
        return {
            "graph_name": self.graph_name,
            "policy": self.policy,
            "makespan": self.makespan,
            "bytes_moved": self.bytes_moved,
            "records": [dict(vars(r)) for r in self.records],
            "faults": [dict(vars(f)) for f in self.faults],
            "recoveries": [dict(vars(r)) for r in self.recoveries],
        }

    def to_json(self) -> str:
        """Deterministic serialization: identical runs give identical
        bytes, so chaos replays can be compared byte-for-byte."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def digest(self) -> str:
        """Short content hash of the serialized trace."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]
