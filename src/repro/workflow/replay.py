"""Replay of workflow journals into resumable run state.

A run's write-ahead journal (:mod:`repro.workflow.journal`) is a
sequence of typed records; this module folds that sequence into a
:class:`ReplayState` — the durable summary a resumed run needs:

* how many times each task's payload was *invoked* and how many times
  the task *completed* — the invocations are the credits a resumed
  server spends so that no payload runs twice (:class:`PayloadSkipper`).
  Only a task with a payload has an invocation to journal; one without
  is recorded by its completions alone. Older journals hold an
  ``exec`` record for every task attempt; their credits for tasks
  without a payload are never spent;
* the run header (graph digest, policy, worker pool) so a resume
  against the wrong recipe is rejected instead of silently diverging;
* fault/recovery tallies for ``repro runs show``.

The fold is a pure function (:func:`apply_record`, which folds an
``event`` record through :func:`fold_event`), shared by the journal
writer — which maintains the state incrementally so a snapshot is just
the state's fields (:func:`repro.core.store.encode`), and folds each
event it journals straight from its fields — and the reader, which
seeds the state from the newest usable snapshot and folds only the
journal tail.
The defining property, exercised by the durability test suite::

    replay(snapshot_state, tail) == replay(empty, full_journal)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.workflow.tracing import FAULT_CATEGORY, RECOVERY_CATEGORY, TASK_CATEGORY

#: Tracer category for task payload invocations (emitted by the server
#: when a journal is attached and the task has a payload, just before
#: the payload is called; see workflow/recovery.py).
EXEC_CATEGORY = "workflow.exec"
#: Tracer category for journal bookkeeping instants (snapshots,
#: finish) surfaced in exported Chrome traces.
JOURNAL_CATEGORY = "workflow.journal"


@dataclass
class ReplayState:
    """Everything the journal proves happened before a crash."""

    #: The journal header (graph digest, policy, workers); None until a
    #: header record is applied.
    header: Optional[Dict] = None
    #: Task name -> times the task's payload was invoked.
    exec_counts: Dict[str, int] = field(default_factory=dict)
    #: Task name -> times a completion record was journaled.
    completions: Dict[str, int] = field(default_factory=dict)
    events: int = 0
    faults: int = 0
    recoveries: int = 0
    last_seq: int = -1
    last_time: float = 0.0
    last_snapshot_seq: int = -1
    finished: bool = False
    digest: Optional[str] = None

    def total_completions(self) -> int:
        """Completion records across all tasks (lineage re-runs count)."""
        return sum(self.completions.values())

    def payload_skipper(self) -> "PayloadSkipper":
        """Skip credits for a resumed execution of this run."""
        return PayloadSkipper(self.exec_counts)

    def summary(self) -> Dict:
        """Compact description for ``repro runs list|show``."""
        return {
            "events": self.events,
            "executions": sum(self.exec_counts.values()),
            "completions": self.total_completions(),
            "faults": self.faults,
            "recoveries": self.recoveries,
            "finished": self.finished,
            "digest": self.digest,
            "sim_time": self.last_time,
        }


class PayloadSkipper:
    """Spends journaled payload credits during a resumed run.

    The server calls :meth:`take` before each payload invocation; while
    a task still has journaled invocations left, the call returns True
    and the (deterministic) re-execution skips invoking the payload —
    the real work already happened before the crash.
    """

    def __init__(self, credits: Dict[str, int]):
        """``credits``: task name -> journaled payload invocations
        (copied: spending them leaves the replayed state as it was)."""
        self._credits = dict(credits)

    def take(self, task_name: str) -> bool:
        """Consume one credit; True when this execution already ran."""
        remaining = self._credits.get(task_name, 0)
        if remaining > 0:
            self._credits[task_name] = remaining - 1
        return remaining > 0


def _completion(state: ReplayState, phase: str, task: str) -> None:
    if phase == "X":
        state.completions[task] = state.completions.get(task, 0) + 1


def _execution(state: ReplayState, phase: str, task: str) -> None:
    state.exec_counts[task] = state.exec_counts.get(task, 0) + 1


def _fault(state: ReplayState, phase: str, task: str) -> None:
    state.faults += 1


def _recovery(state: ReplayState, phase: str, task: str) -> None:
    state.recoveries += 1


#: The journaled tracer categories, each with its fold. Of any other
#: event the fold reads nothing but that it happened and when, and a
#: deterministic re-execution regenerates it from (recipe, fault
#: schedule) — so :meth:`RunJournal.on_event` journals exactly these:
#: task completions, payload invocations, faults, recoveries.
JOURNALED_CATEGORIES = {
    TASK_CATEGORY: _completion,
    EXEC_CATEGORY: _execution,
    FAULT_CATEGORY: _fault,
    RECOVERY_CATEGORY: _recovery,
}


def fold_event(state: ReplayState, seq: int, phase: str, category: str,
               ts: float, dur: float, task: str) -> None:
    """Fold one ``event`` record, given by the fields the fold reads:
    its phase, category, ``ts`` and ``dur``, and the task it names
    (``args["task"]``, else the event's ``name``). The reader
    takes them from a decoded record, the writer from the tracer
    event it journals, so neither builds what the other reads."""
    state.last_seq = seq
    state.events += 1
    end = ts + dur
    if end > state.last_time:
        state.last_time = end
    fold = JOURNALED_CATEGORIES.get(category)
    if fold is not None:
        fold(state, phase, task)


def apply_record(state: ReplayState, record: Dict) -> ReplayState:
    """Fold one decoded journal record into the state (in place).

    This is the single definition of what each record type *means*;
    the journal writer applies it as records are appended (an
    ``event`` through :func:`fold_event`, the part of it that reads
    fields) and the reader applies it during replay, so both sides
    always agree. A record of a type this build does not write (an
    older journal's) advances ``last_seq`` and nothing else.
    """
    kind = record["type"]
    data = record["data"]
    state.last_seq = record["seq"]
    if kind == "header":
        state.header = data
    elif kind == "event":
        fold_event(state, record["seq"], data.get("phase"),
                   data.get("category"), data.get("ts", 0.0),
                   data.get("dur", 0.0),
                   data.get("args", {}).get("task", data.get("name", "")))
    elif kind == "snapshot":
        state.last_snapshot_seq = data["seq"]
    elif kind == "finish":
        state.finished = True
        state.digest = data.get("digest")
    return state


def replay_records(records, state: Optional[ReplayState] = None,
                   after_seq: int = -1) -> ReplayState:
    """Fold ``records`` with seq > ``after_seq`` into ``state``."""
    state = state if state is not None else ReplayState()
    for record in records:
        if record["seq"] > after_seq:
            apply_record(state, record)
    return state
