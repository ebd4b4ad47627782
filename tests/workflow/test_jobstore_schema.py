"""The store's indexes, how an older store file is migrated, and the
SQLite floor.

One index is keyed by state (``idx_jobs_state``); owners are indexed
by ``(owner, id)``. A store written with the earlier three state-keyed
indexes loses the two extra ones when this build opens it, and every
row and every lease / complete / expire step reads as in a store this
build created. No hot query scans the ``jobs`` table.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.errors import JobStoreError
from repro.workflow.jobstore import JOB_STATES, JobSpec, JobStore
from tests.workflow.conftest import FakeClock

#: The DDL of stores written before the owner index stopped being
#: keyed by state and the lease index was dropped.
EARLIER_SCHEMA = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE jobs (
    id               INTEGER PRIMARY KEY,
    key              TEXT NOT NULL UNIQUE,
    name             TEXT NOT NULL,
    owner            TEXT NOT NULL DEFAULT '',
    kind             TEXT NOT NULL,
    spec             TEXT NOT NULL,
    state            TEXT NOT NULL DEFAULT 'staged',
    attempts         INTEGER NOT NULL DEFAULT 0,
    max_attempts     INTEGER NOT NULL DEFAULT 3,
    lease_id         TEXT,
    lease_expiry     REAL,
    launcher         TEXT,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    result           TEXT,
    run_id           TEXT,
    created          REAL NOT NULL,
    updated          REAL NOT NULL
);
CREATE INDEX idx_jobs_state ON jobs(state, id);
CREATE INDEX idx_jobs_owner ON jobs(owner, state);
CREATE INDEX idx_jobs_lease ON jobs(state, lease_expiry);
CREATE TABLE job_tags (
    job_id INTEGER NOT NULL REFERENCES jobs(id) ON DELETE CASCADE,
    tag    TEXT NOT NULL,
    PRIMARY KEY (job_id, tag)
) WITHOUT ROWID;
CREATE INDEX idx_tags_tag ON job_tags(tag, job_id);
INSERT INTO meta(key, value) VALUES ('schema_version', '1');
"""

#: One row per state: (state, attempts, lease_id, lease_expiry,
#: launcher, cancel_requested, result, run_id). The running rows'
#: leases expired at 990; "running-live" holds until 2000.
ROWS = {
    "staged": ("staged", 0, None, None, None, 0, None, None),
    "ready": ("ready", 1, None, None, None, 0, None, None),
    "running": ("running", 1, "lease-a", 990.0, "l0", 0, None, "job-3"),
    "running-live": ("running", 1, "lease-b", 2000.0, "l1", 0, None,
                     None),
    "running-cancel": ("running", 1, "lease-a", 990.0, "l0", 1, None,
                       None),
    "running-spent": ("running", 3, "lease-a", 990.0, "l0", 0, None,
                      None),
    "done": ("done", 1, None, None, "l0", 0, '{"digest":"d"}', None),
    "failed": ("failed", 3, None, None, "l0", 0, '{"error":"e"}', None),
    "cancelled": ("cancelled", 0, None, None, None, 1,
                  '{"error":"cancelled"}', None),
}


def fill(conn):
    """Insert :data:`ROWS` (ids 1..9, owner by parity, tagged)."""
    for job_id, (name, row) in enumerate(ROWS.items(), start=1):
        state, attempts, lease_id, expiry, launcher, cancel, result, \
            run_id = row
        conn.execute(
            "INSERT INTO jobs (id, key, name, owner, kind, spec, state, "
            "attempts, max_attempts, lease_id, lease_expiry, launcher, "
            "cancel_requested, result, run_id, created, updated) "
            "VALUES (?,?,?,?,'noop',?,?,?,3,?,?,?,?,?,?,900.0,950.0)",
            (job_id, f"k{job_id}", name, "ab"[job_id % 2],
             f'{{"i":{job_id}}}', state, attempts, lease_id, expiry,
             launcher, cancel, result, run_id),
        )
        conn.execute("INSERT INTO job_tags VALUES (?, ?)",
                     (job_id, f"t{job_id % 3}"))


def user_indexes(path):
    with sqlite3.connect(str(path)) as conn:
        return {name for (name,) in conn.execute(
            "SELECT name FROM sqlite_master WHERE type='index' "
            "AND name NOT LIKE 'sqlite_autoindex_%'")}


def earlier_store(path):
    conn = sqlite3.connect(str(path))
    conn.executescript(EARLIER_SCHEMA)
    fill(conn)
    conn.commit()
    conn.close()


def current_store(path, clock):
    with JobStore(path, clock=clock) as store:
        fill(store._conn)


def cycle(store, clock):
    """Expire, lease, complete, fail, expire again: what each returns."""
    seen = [store.expire_leases()]
    lease = store.lease("l2", 2, ttl_s=10.0)
    seen.append([(job.id, job.attempts, job.tags) for job in lease.jobs])
    store.complete(lease.jobs[0].id, lease.lease_id, {"ok": 1})
    seen.append(store.fail(lease.jobs[1].id, lease.lease_id, "e"))
    clock.advance(2000)
    seen.append(store.expire_leases())
    seen.append(store.counts())
    seen.append(store.counts(owner="a"))
    seen.append([(job.id, job.state, job.result)
                 for job in store.list_jobs(owner="b")])
    return seen


def test_an_earlier_store_loses_its_state_keyed_indexes(tmp_path):
    earlier_store(tmp_path / "old.db")
    assert user_indexes(tmp_path / "old.db") == {
        "idx_jobs_state", "idx_jobs_owner", "idx_jobs_lease",
        "idx_tags_tag"}
    JobStore(tmp_path / "old.db", clock=FakeClock()).close()
    current_store(tmp_path / "new.db", FakeClock())
    expected = {"idx_jobs_state", "idx_jobs_owner_id", "idx_tags_tag"}
    assert user_indexes(tmp_path / "old.db") == expected
    assert user_indexes(tmp_path / "new.db") == expected


def test_a_migrated_store_reads_and_runs_as_a_new_one(tmp_path):
    earlier_store(tmp_path / "old.db")
    clocks = {"old.db": FakeClock(), "new.db": FakeClock()}
    current_store(tmp_path / "new.db", clocks["new.db"])
    records, cycles = {}, {}
    for name, clock in clocks.items():
        with JobStore(tmp_path / name, clock=clock) as store:
            records[name] = [store.job(job_id)
                             for job_id in range(1, len(ROWS) + 1)]
            cycles[name] = cycle(store, clock)
    assert records["old.db"] == records["new.db"]
    for record, (name, row) in zip(records["old.db"], ROWS.items()):
        assert (record.name, record.state, record.attempts,
                record.lease_id, record.run_id) == (
                    name, row[0], row[1], row[2], row[7])
        assert record.spec == {"i": record.id}
        assert record.tags == (f"t{record.id % 3}",)
    assert cycles["old.db"] == cycles["new.db"]
    requeued, failed = cycles["old.db"][0]
    assert (requeued, failed) == ([3], [6])  # 5 had a cancel pending
    assert set(cycles["old.db"][4]) == set(JOB_STATES)


def test_no_hot_query_scans_the_jobs_table(tmp_path):
    clock = FakeClock()
    with JobStore(tmp_path / "jobs.db", clock=clock) as store:
        for owner in ("a", "b"):
            store.submit([JobSpec(name=f"{owner}{i}", spec={"i": i})
                          for i in range(200)], owner=owner, tags=("t",))
        lease = store.lease("l0", 4)
        issued = []
        store._conn.set_trace_callback(issued.append)
        calls = {
            "claim": lambda: store.lease("l1", 16),
            "expire_leases": store.expire_leases,
            "heartbeat": lambda: store.heartbeat(lease.lease_id),
            "counts(owner=)": lambda: store.counts(owner="a"),
            "list_jobs(owner=)": lambda: store.list_jobs(owner="b"),
        }
        plans = {}
        for name, call in calls.items():
            del issued[:]
            call()
            queries = [sql for sql in issued
                       if sql.split()[0] in ("SELECT", "UPDATE")]
            assert queries, name
            plans[name] = [
                detail for sql in queries
                for *_ids, detail in store._conn.execute(
                    f"EXPLAIN QUERY PLAN {sql}")
            ]
        store._conn.set_trace_callback(None)
    for name, details in plans.items():
        assert not [d for d in details if d.startswith("SCAN jobs")], (
            name, details)
    assert any("idx_jobs_owner_id" in d
               for d in plans["list_jobs(owner=)"])
    assert any("idx_jobs_state" in d for d in plans["heartbeat"])


def test_an_sqlite_without_returning_is_job005(tmp_path, monkeypatch):
    monkeypatch.setattr(sqlite3, "sqlite_version_info", (3, 34, 1))
    monkeypatch.setattr(sqlite3, "sqlite_version", "3.34.1")
    with pytest.raises(JobStoreError) as excinfo:
        JobStore(tmp_path / "sub" / "jobs.db")
    assert excinfo.value.code == "JOB005"
    assert str(excinfo.value).startswith(
        "JOB005: SQLite ≥ 3.35 required for ")
    assert "3.34.1" in str(excinfo.value)
    assert not (tmp_path / "sub").exists()
