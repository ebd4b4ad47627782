"""What the run journal writes, pinned as counts — no wall clock.

The journal's only reader is the fold in :mod:`repro.workflow.replay`,
so the journal keeps the four tracer categories that fold reads
(``JOURNALED_CATEGORIES``: completions, payload invocations, faults,
recoveries) and nothing else. Four things are pinned here:

* **volume** — a fault-free run writes exactly one ``event`` record
  per task, and one more per task given a payload; a chaos run
  exactly one per payload invocation, completion, fault and recovery;
* **one kind of recovery point** — a run writes one snapshot record
  and file per ``snapshot_every`` events and no other, task faults in
  its schedule or not;
* **membership** — every ``event`` record's category is in the table,
  and it carries only the fields the fold reads (of the args, ``task``);
* **losslessness** — folding *every* event the tracer recorded gives
  the same tallies, simulated time and digest as the journal's own
  state: the filter drops nothing the fold reads.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.chaos import random_task_graph
from repro.core.store import encode
from repro.obs import Tracer
from repro.workflow.journal import (
    JOURNAL_FILE,
    RunJournal,
    list_snapshots,
    read_records,
)
from repro.workflow.recovery import ResilientServer
from repro.workflow.replay import (
    EXEC_CATEGORY,
    JOURNALED_CATEGORIES,
    ReplayState,
    apply_record,
    replay_records,
)
from repro.workflow.tracing import (
    FAULT_CATEGORY,
    RECOVERY_CATEGORY,
    TASK_CATEGORY,
)

from tests.chaos.conftest import FAULT_SEEDS, GRAPH_SEEDS, make_pool, seeded_chaos

#: Fields of the replayed state the fold derives from tracer events
#: (``events`` itself is the record count, which the filter changes).
FOLDED = ("exec_counts", "completions", "faults", "recoveries",
          "last_time", "digest")


def give_payloads(graph, names):
    """A do-nothing payload for each named task."""
    for name in names:
        graph.tasks[name].payload = lambda: None


def journaled_run(directory, graph, pool, chaos=None, **journal_options):
    """One journaled run; returns (journal records, session tracer)."""
    session = Tracer()
    with RunJournal(directory, **journal_options) as journal:
        ResilientServer(pool).run(
            graph, chaos=chaos, journal=journal, tracer=session
        )
    records, torn = read_records(directory / JOURNAL_FILE)
    assert not torn
    return records, session


def chaos_run(directory, graph_seed, fault_seed, paid=(),
              **journal_options):
    """One cell of the 5 x 4 chaos grid, journaled; the ``paid`` tasks
    have a payload."""
    graph, pool, schedule = seeded_chaos(graph_seed, fault_seed)
    give_payloads(graph, paid)
    assert schedule.task_faults()
    return journaled_run(directory, graph, pool, chaos=schedule,
                         **journal_options)


def fold_every_tracer_event(records, session) -> ReplayState:
    """The state a full mirror of the tracer would have folded to:
    every traced event as an ``event`` record, plus the journal's own
    non-event records (header, snapshots, finish)."""
    state = ReplayState()
    for seq, event in enumerate(session.events):
        apply_record(state, {"seq": seq, "type": "event", "data": {
            "phase": event.phase, "name": event.name,
            "category": event.category, "ts": event.ts,
            "dur": event.dur, "args": event.args,
        }})
    for record in records:
        if record["type"] != "event":
            apply_record(state, record)
    return state


def assert_filter_is_lossless(records, session):
    own = encode(replay_records(records))
    mirrored = encode(fold_every_tracer_event(records, session))
    # the tracer holds categories the journal does not
    assert mirrored["events"] > own["events"]
    assert {event.category for event in session.events} \
        - set(JOURNALED_CATEGORIES)
    for name in FOLDED:
        assert own[name] == mirrored[name], name


def test_the_table_names_four_categories():
    assert set(JOURNALED_CATEGORIES) == {
        TASK_CATEGORY, EXEC_CATEGORY, FAULT_CATEGORY, RECOVERY_CATEGORY,
    }


def test_fault_free_run_writes_two_event_records_per_task(tmp_path):
    # two for a task given a payload, one for every other task
    graph = random_task_graph(1, 150)
    paid = sorted(graph.tasks)[::3]
    give_payloads(graph, paid)
    snapshot_every = 100
    records, session = journaled_run(
        tmp_path, graph, make_pool(8, 2), snapshot_every=snapshot_every
    )
    events = [r["data"] for r in records if r["type"] == "event"]
    assert len(events) == len(graph.tasks) + len(paid) == 200
    for category, tasks in ((EXEC_CATEGORY, paid),
                            (TASK_CATEGORY, graph.tasks)):
        per_task = Counter(
            data["args"]["task"] for data in events
            if data["category"] == category
        )
        assert per_task == dict.fromkeys(tasks, 1), category
    assert Counter(r["type"] for r in records) == {
        "header": 1,
        "event": len(events),
        "snapshot": len(events) // snapshot_every,
        "finish": 1,
    }
    assert_filter_is_lossless(records, session)


@pytest.mark.parametrize("graph_seed", GRAPH_SEEDS)
@pytest.mark.parametrize("fault_seed", FAULT_SEEDS)
def test_chaos_run_writes_one_record_per_folded_transition(
        graph_seed, fault_seed, tmp_path):
    records, session = chaos_run(tmp_path, graph_seed, fault_seed)
    events = [r["data"] for r in records if r["type"] == "event"]
    assert {data["category"] for data in events} \
        <= set(JOURNALED_CATEGORIES)
    state = replay_records(records)
    assert state.finished and state.faults and state.recoveries
    assert len(events) == state.events == (
        sum(state.exec_counts.values()) + state.total_completions()
        + state.faults + state.recoveries
    )
    assert_filter_is_lossless(records, session)


@pytest.mark.parametrize("fault_seed", FAULT_SEEDS)
def test_event_records_carry_only_the_folded_fields(fault_seed, tmp_path):
    # no ``exec`` record without a payload; the full table with one
    for paid, categories in (
            ((), set(JOURNALED_CATEGORIES) - {EXEC_CATEGORY}),
            (("t0",), set(JOURNALED_CATEGORIES))):
        directory = tmp_path / f"paid-{len(paid)}"
        records, _session = chaos_run(directory, 0, fault_seed, paid)
        events = [r["data"] for r in records if r["type"] == "event"]
        assert {data["category"] for data in events} == categories
        for data in events:
            assert set(data) == {"args", "category", "dur", "name",
                                 "phase", "ts"}
            assert set(data["args"]) <= {"task"}


@pytest.mark.parametrize("fault_seed", FAULT_SEEDS)
def test_chaos_run_writes_one_snapshot_per_interval_and_no_other(
        fault_seed, tmp_path):
    snapshot_every = 7
    records, _session = chaos_run(
        tmp_path, 0, fault_seed, snapshot_every=snapshot_every
    )
    kinds = Counter(record["type"] for record in records)
    assert kinds == {
        "header": 1,
        "event": kinds["event"],
        "snapshot": kinds["event"] // snapshot_every,
        "finish": 1,
    }
    assert kinds["snapshot"] >= 3
    assert len(list_snapshots(tmp_path)) == kinds["snapshot"]
