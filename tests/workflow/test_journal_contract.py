"""The write-ahead guarantees the journal keeps while writing less.

* one ``write`` + ``flush`` per record, each line whole, before the
  run proceeds; a crc on every line and on every snapshot;
* a task's ``exec`` record is on disk before its payload is invoked,
  and only a task with a payload has one;
* one fsync per ``snapshot()`` (none under ``fsync="never"``); a run
  under ``fsync="snapshot"`` syncs at its header, its snapshots and its
  finish, and at its close only when it stopped before finishing; a
  run under ``fsync="never"`` syncs once, at its close;
* a snapshot whose body is not a usable object is skipped, never a
  traceback;
* the format has not moved: a journal and its snapshots written by the
  commit before the journal started filtering
  (``fixtures/journal_pr18``, full tracer mirror, ``dispatches`` tally
  in every snapshot, one ``checkpoint`` record of the named markers
  builds up to PR 20 wrote) replay to what this build writes for the
  same recipe, and a crashed copy resumes to the same digest;
* the bytes have not moved: the sha256 of each journal and snapshot
  file the fixture's recipe writes is a golden row.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest

from repro.chaos import ChaosConfig, generate_schedule, random_task_graph
from repro.core.store import decode, encode, seal, unseal as decode_line
from repro.workflow import journal as journal_module
from repro.workflow.journal import (
    JOURNAL_FILE,
    JOURNAL_VERSION,
    SNAPSHOT_VERSION,
    RunJournal,
    list_snapshots,
    read_records,
    read_snapshot,
    replay_journal,
    snapshot_path,
)
from repro.workflow.recovery import ResilientServer
from repro.workflow.replay import (
    EXEC_CATEGORY,
    ReplayState,
    replay_records,
)

from tests import goldens
from tests.chaos.conftest import make_pool

PARENT_RUN = Path(__file__).parent / "fixtures" / "journal_pr18"
#: The recipe ``fixtures/journal_pr18`` was recorded with.
CONFIG = ChaosConfig(crashes=1, link_faults=1, reconfig_faults=1,
                     stragglers=1, task_faults=1)

EVENT = {"name": "a", "category": "x", "phase": "i", "ts": 0.0,
         "dur": 0.0, "args": {}}


def chaos_run(directory, snapshot_every=9, prepare=None, resume=None,
              fsync="snapshot"):
    """The fixture's recipe on this build; returns the trace.

    ``prepare(journal, graph)`` runs before the server does and may
    return a check to make after the run, before the journal closes;
    ``resume`` is the replayed state of a crashed attempt.
    """
    graph = random_task_graph(0, num_tasks=8)
    pool = make_pool(3)
    schedule = generate_schedule(
        graph, [worker.name for worker in pool], 0, CONFIG
    )
    with RunJournal(directory, snapshot_every=snapshot_every,
                    fsync=fsync) as journal:
        check = prepare(journal, graph) if prepare is not None else None
        trace, _stats = ResilientServer(pool).run(
            graph, chaos=schedule, journal=journal, resume=resume
        )
        if check is not None:
            check()
    return trace


@goldens.suite("runs", ["journal_pr18"])
def fixture_recipe_trace(key):
    """The trace of the recipe ``fixtures/journal_pr18`` was recorded
    with, run journaled on this build."""
    with tempfile.TemporaryDirectory() as directory:
        return chaos_run(Path(directory)).to_dict()


@goldens.suite("runs", ["journal_pr18/bytes"])
def fixture_recipe_files(key):
    """The sha256 of each file the recipe's journaled run writes: the
    journal and its snapshots, byte for byte."""
    with tempfile.TemporaryDirectory() as directory:
        chaos_run(Path(directory))
        return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                for path in sorted(Path(directory).iterdir())}


def test_the_recipes_journal_and_snapshot_bytes_have_not_moved():
    goldens.check("runs", "journal_pr18/bytes")


class CheckedHandle:
    """Journal file proxy: every write is one whole line and is
    flushed before the next write."""

    def __init__(self, handle):
        self.handle = handle
        self.writes = self.flushes = 0

    def write(self, text):
        assert self.writes == self.flushes, "write before a flush"
        assert text.endswith("\n") and text.count("\n") == 1
        self.writes += 1
        return self.handle.write(text)

    def flush(self):
        self.flushes += 1
        self.handle.flush()

    def __getattr__(self, name):
        return getattr(self.handle, name)


def test_one_write_and_one_flush_per_record(tmp_path):
    def wrap(journal, _graph):
        journal._ensure_open()
        handle = journal._handle = CheckedHandle(journal._handle)

        def checked():
            records, torn = read_records(tmp_path / JOURNAL_FILE)
            assert not torn and records[-1]["type"] == "finish"
            assert handle.writes == handle.flushes == len(records)

        return checked

    chaos_run(tmp_path, prepare=wrap)


def test_every_line_and_every_snapshot_carries_a_crc(tmp_path):
    chaos_run(tmp_path)
    lines = (tmp_path / JOURNAL_FILE).read_text("utf-8").splitlines()
    for line in lines:
        assert len(json.loads(line)["crc"]) == 12
        decode_line(line)  # verifies it
    snapshots = list_snapshots(tmp_path)
    assert snapshots
    for seq, path in snapshots:
        assert len(json.loads(path.read_text("utf-8"))["crc"]) == 12
        covered, state = read_snapshot(path)
        assert covered == seq == state.last_seq


def test_exec_is_on_disk_before_the_payload_runs(tmp_path):
    seen = []

    def install(_journal, graph):
        for name, task in graph.tasks.items():
            def payload(name=name):
                records, torn = read_records(tmp_path / JOURNAL_FILE)
                # (a snapshot record may follow the event it covers)
                last = [r["data"] for r in records
                        if r["type"] == "event"][-1]
                assert not torn
                assert last["category"] == EXEC_CATEGORY
                assert last["args"]["task"] == name
                seen.append(name)
            task.payload = payload

    chaos_run(tmp_path, prepare=install)
    state, _info = replay_journal(tmp_path)
    assert len(seen) == sum(state.exec_counts.values()) >= 8


def test_only_a_task_with_a_payload_has_an_exec_record(tmp_path):
    chaos_run(tmp_path / "bare")
    records, _torn = read_records(tmp_path / "bare" / JOURNAL_FILE)
    assert records[-1]["type"] == "finish"
    assert not [r for r in records if r["type"] == "event"
                and r["data"]["category"] == EXEC_CATEGORY]

    ran = []

    def install(_journal, graph):
        def payload():
            records, torn = read_records(tmp_path / "paid" / JOURNAL_FILE)
            last = [r["data"] for r in records
                    if r["type"] == "event"][-1]
            assert not torn
            assert last["category"] == EXEC_CATEGORY
            assert last["args"]["task"] == "t3"
            ran.append(None)
        graph.tasks["t3"].payload = payload

    chaos_run(tmp_path / "paid", prepare=install)
    state, _info = replay_journal(tmp_path / "paid")
    assert state.exec_counts == {"t3": len(ran)}
    assert ran


def test_format_versions_have_not_moved():
    assert (JOURNAL_VERSION, SNAPSHOT_VERSION) == (1, 1)


# ----------------------------------------------------------------------
# fsyncs
# ----------------------------------------------------------------------


@pytest.fixture
def fsyncs(monkeypatch):
    """File descriptors ``os.fsync`` was called on, in order."""
    calls = []
    real = os.fsync

    def counting(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(journal_module.os, "fsync", counting)
    return calls


@pytest.mark.parametrize("policy, per_snapshot",
                         [("never", 0), ("snapshot", 1), ("always", 1)])
def test_fsyncs_per_snapshot_and_per_checkpoint(
        tmp_path, fsyncs, policy, per_snapshot):
    # (the id is the one the suite has always had: up to PR 20 a named
    # checkpoint marker was the other place a journal synced)
    with RunJournal(tmp_path, snapshot_every=0, fsync=policy) as journal:
        journal.start({"graph": "toy"})
        journal.append("event", EVENT)
        del fsyncs[:]
        for _ in range(3):
            journal.snapshot()
            journal.append("event", EVENT)
        appended = 3 if policy == "always" else 0
        assert len(fsyncs) == 3 * per_snapshot + appended
        assert set(fsyncs) <= {journal._handle.fileno()}


def test_snapshot_policy_syncs_header_snapshots_and_finish(
        tmp_path, fsyncs):
    # a run with task faults: none of them adds a sync of its own, and
    # closing after the finish record has nothing left to sync
    chaos_run(tmp_path, snapshot_every=9)
    records, _torn = read_records(tmp_path / JOURNAL_FILE)
    snapshots = [r for r in records if r["type"] == "snapshot"]
    assert len(snapshots) == len(list_snapshots(tmp_path)) >= 2
    assert records[-1]["type"] == "finish"
    assert len(fsyncs) == 1 + len(snapshots) + 1


class Killed(Exception):
    """Stands for the process dying in the middle of a run."""


def test_a_run_stopped_mid_way_syncs_its_tail_at_close(tmp_path, fsyncs):
    def kill_at_the_fourth_payload(_journal, graph):
        calls = []

        def payload():
            calls.append(None)
            if len(calls) == 4:
                raise Killed()
        for task in graph.tasks.values():
            task.payload = payload

    with pytest.raises(Killed):
        chaos_run(tmp_path, snapshot_every=9,
                  prepare=kill_at_the_fourth_payload)
    records, _torn = read_records(tmp_path / JOURNAL_FILE)
    snapshots = [r for r in records if r["type"] == "snapshot"]
    assert records[-1]["type"] == "event"
    assert len(fsyncs) == 1 + len(snapshots) + 1


def test_never_policy_syncs_once_at_close(tmp_path, fsyncs):
    chaos_run(tmp_path, snapshot_every=9, fsync="never")
    records, _torn = read_records(tmp_path / JOURNAL_FILE)
    assert records[-1]["type"] == "finish"
    assert len(list_snapshots(tmp_path)) >= 2
    assert len(fsyncs) == 1


# ----------------------------------------------------------------------
# damaged snapshots
# ----------------------------------------------------------------------


def versioned_snapshot(state) -> str:
    """A well-formed snapshot around ``state``, sealed as a snapshot
    is written, so its crc verifies and only its state is unusable."""
    return seal({
        "snapshot_version": SNAPSHOT_VERSION,
        "journal_version": JOURNAL_VERSION,
        "seq": 5,
        "state": state,
    })


@pytest.mark.parametrize("body", [
    "null", "[]", "3", '"x"', versioned_snapshot([]),
], ids=["null", "list", "number", "string", "state-is-a-list"])
def test_unusable_snapshot_body_falls_back_to_full_replay(tmp_path, body):
    chaos_run(tmp_path, snapshot_every=0)
    for _seq, path in list_snapshots(tmp_path):
        path.unlink()  # leave only the damaged one
    full, _ = replay_journal(tmp_path, use_snapshots=False)
    damaged = snapshot_path(tmp_path, 5)
    damaged.write_text(body, encoding="utf-8")
    assert read_snapshot(damaged) is None
    state, info = replay_journal(tmp_path)
    assert info.snapshot_seq == -1
    assert state == full


# ----------------------------------------------------------------------
# what the parent commit wrote still replays
# ----------------------------------------------------------------------


def test_snapshot_in_the_parents_shape_still_loads():
    written = {
        "header": {"graph": "toy"}, "exec_counts": {"t0": 2},
        "completions": {"t0": 1}, "checkpoints": {"pre:t0": 4},
        "events": 25, "dispatches": 4, "faults": 4, "recoveries": 1,
        "last_seq": 25, "last_time": 1.5, "last_snapshot_seq": -1,
        "finished": False, "digest": None,
    }
    state = decode(ReplayState, written)
    del written["dispatches"], written["checkpoints"]
    assert encode(state) == written
    assert state.payload_skipper().take("t0")


def test_parent_written_run_replays_to_this_builds_summary(tmp_path):
    records, torn = read_records(PARENT_RUN / JOURNAL_FILE)
    assert not torn
    # it is the full mirror: dispatch instants, and a tally of them
    assert any(r["data"].get("name") == "dispatch" for r in records)
    for _seq, path in list_snapshots(PARENT_RUN):
        assert "dispatches" in json.loads(path.read_text("utf-8"))["state"]

    resumed, info = replay_journal(PARENT_RUN)
    full, _ = replay_journal(PARENT_RUN, use_snapshots=False)
    assert info.snapshot_seq == 72 and info.records_replayed == 4
    assert resumed == full

    trace = chaos_run(tmp_path)
    goldens.check("runs", "journal_pr18", trace.to_dict())
    ours, _ = replay_journal(tmp_path)
    assert ours.digest == trace.digest()
    theirs = full.summary()
    assert theirs == {
        "events": 72, "executions": 8, "completions": 8, "faults": 5,
        "recoveries": 5, "finished": True,
        "digest": "106fa68d69149ede", "sim_time": 4.539653722111332,
    }
    assert theirs.pop("events") == 72
    mine = ours.summary()
    assert mine.pop("events") == 18
    # the parent wrote an ``exec`` record per task attempt; the run's
    # tasks have no payload, so this build writes none
    assert theirs.pop("executions") == 8
    assert mine.pop("executions") == 0
    assert mine == theirs
    assert ours.exec_counts == {}
    assert ours.completions == full.completions


def test_parent_written_run_resumes_past_its_checkpoint_record(tmp_path):
    """A crash five records after the ``checkpoint`` marker an older
    build wrote: the marker folds as a record of an unknown type
    (``last_seq`` moves, nothing else) and the resume is exact."""
    records, _torn = read_records(PARENT_RUN / JOURNAL_FILE)
    marker, = [r for r in records if r["type"] == "checkpoint"]
    before = encode(replay_records(records[:marker["seq"]]))
    after = encode(replay_records(records[:marker["seq"] + 1]))
    assert after.pop("last_seq") == before.pop("last_seq") + 1
    assert after == before

    kill_at = marker["seq"] + 5
    lines = (PARENT_RUN / JOURNAL_FILE).read_text("utf-8").splitlines(True)
    (tmp_path / JOURNAL_FILE).write_text("".join(lines[:kill_at]), "utf-8")
    for _seq, path in list_snapshots(PARENT_RUN):
        shutil.copy(path, tmp_path / path.name)
    state, info = replay_journal(tmp_path)
    full, _ = replay_journal(tmp_path, use_snapshots=False)
    # seeded from the snapshot the marker came with; the tail holds it
    assert info.snapshot_seq == marker["data"]["seq"]
    assert state.last_seq == kill_at - 1 and not state.finished
    assert state == full

    (tmp_path / JOURNAL_FILE).unlink()
    for _seq, path in list_snapshots(tmp_path):
        path.unlink()
    resumed = chaos_run(tmp_path, resume=state)
    goldens.check("runs", "journal_pr18", resumed.to_dict())
    ours, _ = replay_journal(tmp_path)
    assert ours.finished and ours.digest == resumed.digest()
