"""Robustness suite for the write-ahead run journal.

What a journal must survive, detect, or refuse:

* a **torn final record** — the crash interrupted the last append —
  is silently dropped (that is the only damage a single-``write``
  append discipline allows);
* **corruption anywhere else** (bit flips, truncated middles,
  sequence gaps) raises the ``WF007`` diagnostic naming the byte
  offset of the bad record;
* a journal or snapshot written by **another format version** is
  rejected with ``WF008`` instead of being misread;
* for any prefix/suffix split, **snapshot + replay(tail) equals
  replay(full journal)** — the property that makes O(tail) resume
  sound (pinned with hypothesis over generated runs and split points).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosConfig, generate_schedule, random_task_graph
from repro.errors import JournalError
from repro.core.store import decode, encode
from repro.workflow.journal import (
    JOURNAL_FILE,
    JOURNAL_VERSION,
    RunJournal,
    encode_record,
    list_snapshots,
    read_records,
    read_snapshot,
    replay_journal,
    write_snapshot,
)
from repro.workflow.recovery import ResilientServer
from repro.workflow.replay import ReplayState, replay_records
from repro.workflow.runstore import RunStore

from tests.chaos.conftest import make_pool

CONFIG = ChaosConfig(crashes=1, link_faults=1, reconfig_faults=0,
                     stragglers=1, task_faults=1)


def journaled_run(directory, graph_seed=0, fault_seed=0,
                  snapshot_every=20):
    """One durable chaos run; returns its decoded journal records."""
    graph = random_task_graph(graph_seed, num_tasks=8)
    pool = make_pool(3)
    schedule = generate_schedule(
        graph, [w.name for w in pool], fault_seed, CONFIG
    )
    with RunJournal(directory, snapshot_every=snapshot_every) as journal:
        ResilientServer(pool).run(
            graph, chaos=schedule, journal=journal
        )
    records, torn = read_records(directory / JOURNAL_FILE)
    assert not torn
    return records


# ----------------------------------------------------------------------
# record-level robustness
# ----------------------------------------------------------------------


def test_torn_final_record_is_tolerated(tmp_path):
    journaled_run(tmp_path)
    path = tmp_path / JOURNAL_FILE
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
    records, torn = read_records(path)
    assert torn
    assert len(records) == len(lines) - 1
    # and replay still works off the intact prefix
    state, info = replay_journal(tmp_path)
    assert info.torn_tail
    assert state.last_seq == len(lines) - 2


def test_midfile_corruption_names_the_byte_offset(tmp_path):
    journaled_run(tmp_path)
    path = tmp_path / JOURNAL_FILE
    raw = path.read_bytes()
    lines = raw.splitlines(keepends=True)
    victim = len(lines) // 2
    offset = sum(len(line) for line in lines[:victim])
    # flip one byte inside the victim record's payload
    mutated = bytearray(raw)
    mutated[offset + 20] ^= 0xFF
    path.write_bytes(bytes(mutated))
    with pytest.raises(JournalError) as caught:
        read_records(path)
    assert caught.value.code == "WF007"
    assert f"byte offset {offset}" in str(caught.value)
    assert f"record {victim}" in str(caught.value)


def test_sequence_gap_is_corruption(tmp_path):
    records = journaled_run(tmp_path)
    path = tmp_path / JOURNAL_FILE
    kept = [r for r in records if r["seq"] != 5]  # drop one mid-file
    path.write_text("\n".join(
        encode_record(r["seq"], r["type"], r["data"]) for r in kept
    ) + "\n", encoding="utf-8")
    with pytest.raises(JournalError) as caught:
        read_records(path)
    assert caught.value.code == "WF007"
    assert "sequence gap" in str(caught.value)


def test_journal_version_skew_is_rejected(tmp_path):
    records = journaled_run(tmp_path)
    header = records[0]
    assert header["type"] == "header"
    data = dict(header["data"])
    data["journal_version"] = JOURNAL_VERSION + 1
    lines = [encode_record(0, "header", data)] + [
        encode_record(r["seq"], r["type"], r["data"])
        for r in records[1:]
    ]
    (tmp_path / JOURNAL_FILE).write_text(
        "\n".join(lines) + "\n", encoding="utf-8"
    )
    with pytest.raises(JournalError) as caught:
        read_records(tmp_path / JOURNAL_FILE)
    assert caught.value.code == "WF008"
    assert f"v{JOURNAL_VERSION + 1}" in str(caught.value)


def test_snapshot_version_skew_is_rejected(tmp_path):
    journaled_run(tmp_path)
    snapshots = list_snapshots(tmp_path)
    assert snapshots, "run too small to snapshot"
    _seq, path = snapshots[0]
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["snapshot_version"] = 99
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(JournalError) as caught:
        read_snapshot(path)
    assert caught.value.code == "WF008"


def test_corrupt_snapshot_falls_back_to_full_replay(tmp_path):
    """A truncated snapshot is not trusted: replay must either use an
    older snapshot or fold the whole journal, never half a state."""
    journaled_run(tmp_path)
    full, _ = replay_journal(tmp_path, use_snapshots=False)
    for _seq, path in list_snapshots(tmp_path):
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")
    state, info = replay_journal(tmp_path)
    assert info.snapshot_seq == -1  # none usable
    assert state == full


# ----------------------------------------------------------------------
# the snapshot + tail == full replay property
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def recorded_runs(tmp_path_factory):
    """Journal records of three distinct chaos runs (module-cached)."""
    runs = []
    for graph_seed, fault_seed in ((0, 0), (1, 1), (2, 0)):
        directory = tmp_path_factory.mktemp(
            f"journal-{graph_seed}-{fault_seed}"
        )
        runs.append(journaled_run(
            directory, graph_seed, fault_seed
        ))
    return runs


@settings(max_examples=60, deadline=None)
@given(run=st.integers(min_value=0, max_value=2), data=st.data())
def test_snapshot_plus_tail_equals_full_replay(recorded_runs, run, data):
    records = recorded_runs[run]
    split = data.draw(
        st.integers(min_value=0, max_value=len(records) - 1),
        label="split",
    )
    full = replay_records(records)
    prefix = replay_records(records[: split + 1])
    resumed = replay_records(
        records, state=decode(ReplayState, encode(prefix)),
        after_seq=split,
    )
    assert resumed == full


def test_on_disk_snapshot_matches_full_replay(tmp_path):
    """The same property end-to-end through the snapshot files the
    journal actually wrote during the run."""
    journaled_run(tmp_path, snapshot_every=15)
    with_snapshots, info = replay_journal(tmp_path, use_snapshots=True)
    without, _ = replay_journal(tmp_path, use_snapshots=False)
    assert info.snapshot_seq >= 0
    assert info.records_replayed < info.records_total
    assert with_snapshots == without


# ----------------------------------------------------------------------
# the run store
# ----------------------------------------------------------------------


def test_runstore_roundtrip_and_gc(tmp_path):
    store = RunStore(tmp_path)
    run_id, journal = store.create_run(
        "chaos", {"graph_seed": 0}, snapshot_every=20
    )
    graph = random_task_graph(0, num_tasks=8)
    pool = make_pool(3)
    schedule = generate_schedule(
        graph, [w.name for w in pool], 0, CONFIG
    )
    with journal:
        ResilientServer(pool).run(graph, chaos=schedule, journal=journal)
    rows = store.list_runs()
    assert [row.run_id for row in rows] == [run_id]
    assert rows[0].status == "complete"
    assert rows[0].state.digest
    # duplicate ids are refused
    with pytest.raises(JournalError):
        store.create_run("chaos", {}, run_id=run_id)
    assert store.gc() == [run_id]
    assert store.list_runs() == []


def test_runstore_prepare_resume_archives_the_crash(tmp_path):
    store = RunStore(tmp_path)
    run_id, journal = store.create_run("chaos", {"graph_seed": 1})
    with journal:
        journal.start({"graph": "toy"})
        journal.append("event", {"name": "a", "category": "x",
                                 "phase": "i", "ts": 0.0, "dur": 0.0,
                                 "args": {}})
    meta, state, fresh = store.prepare_resume(run_id)
    with fresh:
        assert meta["attempts"] == 2
        assert not state.finished
        assert state.events == 1
        directory = store.run_dir(run_id)
        assert (directory / "archive-1" / JOURNAL_FILE).exists()
        assert not (directory / JOURNAL_FILE).exists()
        # in-flight runs survive a default gc
        assert store.gc() == []
        assert store.gc(completed_only=False) == [run_id]


def test_runstore_open_creates_resumes_or_refuses(tmp_path):
    """``RunStore.open``: a new id with a recipe creates the run; the
    same kind and recipe (or no recipe) resumes it; another kind or
    recipe is WF009 and leaves the run's journal where it was."""
    store = RunStore(tmp_path)
    run_id, recipe, resume, journal = store.open(
        "chaos", run_id="r", recipe={"graph_seed": 1})
    assert (run_id, recipe, resume) == ("r", {"graph_seed": 1}, None)
    with journal:
        journal.start({"graph": "toy"})
    for kind, other in (("run", {"graph_seed": 1}),
                        ("chaos", {"graph_seed": 2})):
        with pytest.raises(JournalError) as caught:
            store.open(kind, run_id="r", recipe=other)
        assert caught.value.code == "WF009"
        assert "'r'" in str(caught.value)
    assert (store.run_dir("r") / JOURNAL_FILE).exists()
    assert store.load_meta("r")["attempts"] == 1
    for again in ({"graph_seed": 1}, None):
        _id, recipe, resume, journal = store.open("chaos", "r", again)
        journal.close()
        assert recipe == {"graph_seed": 1}
        assert resume is not None and not resume.finished
    with pytest.raises(JournalError, match="unknown run 'ghost'"):
        store.open("chaos", run_id="ghost")
    generated, _recipe, _resume, journal = store.open(
        "chaos", recipe={"graph_seed": 3})
    journal.close()
    assert generated.startswith("chaos-")


def test_write_snapshot_is_atomic_and_checksummed(tmp_path):
    state = ReplayState(events=3, last_seq=7)
    path = write_snapshot(tmp_path, 7, state)
    loaded = read_snapshot(path)
    assert loaded is not None
    seq, reloaded = loaded
    assert seq == 7
    assert reloaded == state
    # flip a byte: the snapshot silently degrades to unusable
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    assert read_snapshot(path) is None
