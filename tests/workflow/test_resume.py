"""Crash-everywhere resume matrix for durable workflow runs.

The durability contract: a journaled run killed at *any* point can be
resumed to a byte-identical trace, re-executing only work whose
journaled execution point was never reached. The matrix proves it
exhaustively — for every (graph seed, fault seed) pair one unbroken
journaled chaos run is recorded, then a crash is simulated at **every
journal record offset**: the journal is truncated to its first ``k``
records, replayed into a :class:`ReplayState`, and the run is
re-executed from scratch with that state. At every offset:

* the resumed trace digest equals the unbroken run's digest;
* payload invocations during resume are exactly the unbroken run's
  executions minus the journaled ones (at-least-once, never twice for
  a journaled execution);
* a task whose every execution was journaled before the kill — in
  particular any task covered by a snapshot — never runs again.
"""

from __future__ import annotations

import shutil

import pytest

from repro.chaos import ChaosConfig, generate_schedule, random_task_graph
from repro.errors import JournalError
from repro.workflow.journal import (
    JOURNAL_FILE,
    RunJournal,
    encode_record,
    list_snapshots,
    read_records,
    replay_journal,
)
from repro.workflow.recovery import ResilientServer

from tests.chaos.conftest import make_pool

GRAPH_SEEDS = range(3)
FAULT_SEEDS = range(2)
NUM_TASKS = 8
SNAPSHOT_EVERY = 9
CONFIG = ChaosConfig(crashes=1, link_faults=1, reconfig_faults=1,
                     stragglers=1, task_faults=1)


def attach_counting_payloads(graph):
    """Give every task a payload that counts its real invocations."""
    counts = {}
    for name in graph.tasks:
        def payload(name=name):
            counts[name] = counts.get(name, 0) + 1
        graph.tasks[name].payload = payload
    return counts


def run_chaos(graph_seed, fault_seed, directory, resume=None):
    """One durable chaos run; returns (trace, payload counts)."""
    graph = random_task_graph(graph_seed, num_tasks=NUM_TASKS)
    counts = attach_counting_payloads(graph)
    pool = make_pool(3)
    schedule = generate_schedule(
        graph, [w.name for w in pool], fault_seed, CONFIG
    )
    journal = RunJournal(directory, snapshot_every=SNAPSHOT_EVERY)
    try:
        trace, _stats = ResilientServer(pool).run(
            graph, chaos=schedule, journal=journal, resume=resume
        )
    finally:
        journal.close()
    return trace, counts


def crash_at(source_dir, records, kill_at, target_dir):
    """Materialize the run directory a crash after record ``kill_at - 1``
    would leave behind: the first ``kill_at`` journal records plus every
    snapshot file (replay must ignore snapshots from the lost future)."""
    target_dir.mkdir(parents=True, exist_ok=True)
    with open(target_dir / JOURNAL_FILE, "w", encoding="utf-8") as handle:
        for record in records[:kill_at]:
            handle.write(encode_record(
                record["seq"], record["type"], record["data"]
            ) + "\n")
    for _seq, path in list_snapshots(source_dir):
        shutil.copy(path, target_dir / path.name)


def clear_run_dir(directory):
    """Drop the crashed attempt's files so a fresh journal can start
    (the CLI's RunStore archives them instead)."""
    (directory / JOURNAL_FILE).unlink(missing_ok=True)
    for _seq, path in list_snapshots(directory):
        path.unlink()


@pytest.mark.parametrize("graph_seed", GRAPH_SEEDS)
@pytest.mark.parametrize("fault_seed", FAULT_SEEDS)
def test_resume_from_every_kill_point(graph_seed, fault_seed, tmp_path):
    base = tmp_path / "unbroken"
    trace, unbroken_counts = run_chaos(graph_seed, fault_seed, base)
    expected = trace.digest()
    records, torn = read_records(base / JOURNAL_FILE)
    assert records and not torn
    unbroken_state, _ = replay_journal(base)
    assert unbroken_state.finished and unbroken_state.digest == expected
    assert unbroken_state.exec_counts == unbroken_counts

    for kill_at in range(len(records) + 1):
        kill_dir = tmp_path / "kill"
        shutil.rmtree(kill_dir, ignore_errors=True)
        crash_at(base, records, kill_at, kill_dir)
        state, _info = replay_journal(kill_dir)
        if state.finished:
            # the kill landed after the finish record: nothing to
            # re-execute, the journaled digest is authoritative
            assert kill_at == len(records)
            assert state.digest == expected
            continue
        clear_run_dir(kill_dir)
        resumed, resumed_counts = run_chaos(
            graph_seed, fault_seed, kill_dir, resume=state
        )
        assert resumed.digest() == expected, (
            f"kill at record {kill_at}/{len(records)} diverged"
        )
        # at-least-once, never twice: resume runs exactly the payload
        # executions the journal had not yet recorded
        for task, total in unbroken_counts.items():
            journaled = state.exec_counts.get(task, 0)
            assert resumed_counts.get(task, 0) == total - journaled, (
                f"kill at {kill_at}: task {task} journaled {journaled} "
                f"of {total} executions but resume ran it "
                f"{resumed_counts.get(task, 0)} more times"
            )
        # acceptance: a fully-journaled task never re-executes
        for task, total in unbroken_counts.items():
            if state.exec_counts.get(task, 0) == total:
                assert resumed_counts.get(task, 0) == 0


def test_snapshot_covered_kill_reexecutes_no_completed_task(tmp_path):
    """Kill right after a snapshot: every task the snapshot proves
    complete stays untouched during resume."""
    base = tmp_path / "unbroken"
    trace, unbroken_counts = run_chaos(0, 0, base)
    records, _ = read_records(base / JOURNAL_FILE)
    snapshot_seqs = [
        r["seq"] for r in records if r["type"] == "snapshot"
    ]
    assert snapshot_seqs, "run too small to snapshot; lower SNAPSHOT_EVERY"
    for seq in snapshot_seqs:
        kill_dir = tmp_path / f"kill-{seq}"
        crash_at(base, records, seq + 1, kill_dir)
        state, info = replay_journal(kill_dir)
        assert info.snapshot_seq >= 0  # resumed from the snapshot
        # tasks that completed as many times as they ever will
        completed = {
            task for task in state.completions
            if state.exec_counts.get(task, 0)
            == unbroken_counts.get(task, 0)
        }
        clear_run_dir(kill_dir)
        resumed, resumed_counts = run_chaos(0, 0, kill_dir, resume=state)
        assert resumed.digest() == trace.digest()
        for task in completed:
            assert resumed_counts.get(task, 0) == 0, (
                f"completed task {task} re-executed after "
                f"snapshot-covered kill at seq {seq}"
            )


def test_resume_tolerates_torn_final_record(tmp_path):
    """A kill mid-append leaves a half-written last line; resume drops
    it and still converges on the unbroken digest."""
    base = tmp_path / "unbroken"
    trace, _counts = run_chaos(1, 1, base)
    raw = (base / JOURNAL_FILE).read_bytes()
    lines = raw.splitlines(keepends=True)
    for keep, torn_bytes in ((10, 20), (len(lines) // 2, 7), (len(lines) - 1, 1)):
        kill_dir = tmp_path / f"torn-{keep}"
        kill_dir.mkdir()
        torn = b"".join(lines[:keep]) + lines[keep][:torn_bytes]
        (kill_dir / JOURNAL_FILE).write_bytes(torn)
        state, info = replay_journal(kill_dir)
        assert info.torn_tail
        assert info.records_total == keep
        clear_run_dir(kill_dir)
        resumed, _ = run_chaos(1, 1, kill_dir, resume=state)
        assert resumed.digest() == trace.digest()


def test_resume_recipe_mismatch_is_rejected(tmp_path):
    """Resume state journaled for one recipe must not silently drive a
    different run; the server raises the WF009 diagnostic instead."""
    base = tmp_path / "unbroken"
    run_chaos(0, 0, base)
    records, _ = read_records(base / JOURNAL_FILE)
    crash_dir = tmp_path / "crash"
    crash_at(base, records, len(records) - 1, crash_dir)
    state, _ = replay_journal(crash_dir)
    clear_run_dir(crash_dir)
    with pytest.raises(JournalError) as caught:
        run_chaos(2, 0, crash_dir, resume=state)  # different graph
    assert caught.value.code == "WF009"
    assert "graph_digest" in str(caught.value)


def test_plain_server_resume(tmp_path):
    """A fault-free run honours the same journal/resume contract
    (no chaos schedule involved)."""
    def run(directory, resume=None):
        graph = random_task_graph(4, num_tasks=10)
        counts = attach_counting_payloads(graph)
        journal = RunJournal(directory, snapshot_every=10)
        try:
            trace, _ = ResilientServer(make_pool(3)).run(
                graph, journal=journal, resume=resume
            )
        finally:
            journal.close()
        return trace, counts

    base = tmp_path / "unbroken"
    trace, unbroken_counts = run(base)
    records, _ = read_records(base / JOURNAL_FILE)
    for kill_at in (0, 1, len(records) // 3, len(records) - 1):
        kill_dir = tmp_path / f"kill-{kill_at}"
        crash_at(base, records, kill_at, kill_dir)
        state, _ = replay_journal(kill_dir)
        clear_run_dir(kill_dir)
        resumed, resumed_counts = run(kill_dir, resume=state)
        assert resumed.digest() == trace.digest()
        total = sum(resumed_counts.values()) + sum(
            state.exec_counts.values()
        )
        assert total == sum(unbroken_counts.values())
