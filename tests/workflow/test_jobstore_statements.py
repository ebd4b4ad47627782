"""What each per-job store call costs in SQL statements.

A successful completion, cancel acknowledgement or heartbeat is one
autocommitted statement; a lease is the claim plus one tag read. A
report that fails is the same guarded statement plus one read that
names the failure, with the codes, their order and their texts
unchanged: an unknown job is ``JOB001``, a lease mismatch ``JOB003``
(checked before the state), an illegal source state ``JOB002``.
"""

from __future__ import annotations

import pytest

from repro.errors import JobStoreError
from repro.workflow.jobstore import JobSpec, JobStore
@pytest.fixture()
def store(tmp_path, clock):
    with JobStore(tmp_path / "jobs.db", clock=clock) as jobstore:
        jobstore.submit(
            [JobSpec(name=f"j{i}", spec={"i": i}) for i in range(4)],
            tags=("t",),
        )
        yield jobstore


def statements(store, call):
    """The SQL statements ``call()`` issues on the store's connection."""
    issued = []
    store._conn.set_trace_callback(issued.append)
    try:
        call()
    finally:
        store._conn.set_trace_callback(None)
    return issued


class TestSuccessIsOneStatement:
    def test_complete(self, store):
        lease = store.lease("l1", 1)
        job_id = lease.jobs[0].id
        issued = statements(store, lambda: store.complete(
            job_id, lease.lease_id, {"digest": "d"}))
        assert len(issued) == 1 and issued[0].startswith("UPDATE")
        assert store.job(job_id).state == "done"
        assert store.job(job_id).result == {"digest": "d"}

    def test_cancel_leased(self, store):
        lease = store.lease("l1", 1)
        job_id = lease.jobs[0].id
        store.cancel([job_id])
        issued = statements(
            store, lambda: store.cancel_leased(job_id, lease.lease_id))
        assert len(issued) == 1
        assert store.job(job_id).state == "cancelled"

    def test_heartbeat(self, store):
        lease = store.lease("l1", 3)
        store.cancel([lease.jobs[2].id, lease.jobs[0].id])
        got = []
        issued = statements(store, lambda: got.append(
            store.heartbeat(lease.lease_id)))
        assert len(issued) == 1
        assert got == [(3, [lease.jobs[0].id, lease.jobs[2].id])]

    def test_lease_is_one_write_and_one_tag_read(self, store):
        leases = []
        issued = statements(
            store, lambda: leases.append(store.lease("l1", 3)))
        assert [sql.split()[0] for sql in issued] == ["UPDATE", "SELECT"]
        jobs = leases[0].jobs
        assert [job.id for job in jobs] == sorted(job.id for job in jobs)
        assert all(job.tags == ("t",) and job.state == "running"
                   for job in jobs)

    def test_fail_folds_the_attempts_read(self, store):
        lease = store.lease("l1", 1)
        job_id = lease.jobs[0].id
        got = []
        issued = statements(store, lambda: got.append(
            store.fail(job_id, lease.lease_id, "boom")))
        assert len(issued) == 1 and got == ["ready"]


def _unknown(store, clock):
    return 999, "l-x", "JOB001: unknown job 999"


def _stale(store, clock):
    old = store.lease("dead", 1, ttl_s=5.0)
    job_id = old.jobs[0].id
    clock.advance(6)
    store.expire_leases()
    new = store.lease("alive", 1)
    return job_id, old.lease_id, (
        f"JOB003: job {job_id}: lease {old.lease_id!r} is stale (the "
        f"store reclaimed the job; current lease {new.lease_id!r}); "
        f"discard this result"
    )


def _finished_under_its_old_lease(store, clock):
    # the lease check comes before the state check: a done job
    # reported again under its lease is stale, not illegal
    lease = store.lease("l1", 1)
    job_id = lease.jobs[0].id
    store.complete(job_id, lease.lease_id)
    return job_id, lease.lease_id, (
        f"JOB003: job {job_id}: lease {lease.lease_id!r} is stale (the "
        f"store reclaimed the job; current lease None); "
        f"discard this result"
    )


def _illegal(store, clock):
    lease = store.lease("l1", 1)
    job_id = lease.jobs[0].id
    store.complete(job_id, lease.lease_id)
    return job_id, None, None  # the message names the report's target


SCENARIOS = {
    "unknown-job": _unknown,
    "stale-lease": _stale,
    "done-under-old-lease": _finished_under_its_old_lease,
    "illegal-source-state": _illegal,
}

#: report -> (how it is called, the target its JOB002 text names
#: for a done job with two attempts left)
REPORTS = {
    "complete": (lambda s, j, lease: s.complete(j, lease, {"x": 1}),
                 "done"),
    "fail": (lambda s, j, lease: s.fail(j, lease, "boom"), "ready"),
    "cancel_leased": (lambda s, j, lease: s.cancel_leased(j, lease),
                      "cancelled"),
}


@pytest.mark.parametrize("report", sorted(REPORTS))
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_failing_report_names_the_failure(store, clock, scenario,
                                          report):
    job_id, lease_id, message = SCENARIOS[scenario](store, clock)
    call, target = REPORTS[report]
    if message is None:
        message = (f"JOB002: job {job_id}: illegal transition "
                   f"'done' -> {target!r}")
    before = store.list_jobs(limit=10)
    with pytest.raises(JobStoreError) as excinfo:
        call(store, job_id, lease_id)
    assert str(excinfo.value) == message
    assert excinfo.value.code == message[:6]
    assert store.list_jobs(limit=10) == before  # nothing written


def test_failing_report_is_the_write_and_one_read(store):
    issued = []
    store._conn.set_trace_callback(issued.append)
    with pytest.raises(JobStoreError):
        store.complete(999, "l-x")
    store._conn.set_trace_callback(None)
    assert [sql.split()[0] for sql in issued] == ["UPDATE", "SELECT"]


def test_ready_to_done_without_a_lease_is_illegal(store):
    job_id = store.list_jobs(state="ready", limit=1)[0].id
    with pytest.raises(JobStoreError) as excinfo:
        store.complete(job_id, None)
    assert str(excinfo.value) == (
        f"JOB002: job {job_id}: illegal transition 'ready' -> 'done'")


def test_a_job_moved_between_the_guard_and_the_read_is_retried(
        tmp_path, clock):
    # unleased reports (``lease_id=None``) can race: the guard misses
    # a ready job, another session leases it, and the read then finds
    # a legal source state — the report is retried, not dropped
    with JobStore(tmp_path / "jobs.db", clock=clock) as store, \
            JobStore(tmp_path / "jobs.db", clock=clock) as other:
        job_id = store.submit([JobSpec(name="n")]).inserted[0]
        moved = []

        def lease_from_elsewhere(sql):
            if sql.startswith("SELECT state, lease_id") and not moved:
                moved.append(other.lease("thief", 1).lease_id)

        store._conn.set_trace_callback(lease_from_elsewhere)
        store.complete(job_id, None, {"digest": "d"})
        store._conn.set_trace_callback(None)
        assert moved
        job = store.job(job_id)
        assert (job.state, job.result, job.launcher) == (
            "done", {"digest": "d"}, "thief")
