"""Job-store edge cases: idempotency, leases, state machine, gc.

The store is the service's single source of truth, so these tests pin
the contracts everything else leans on: duplicate submissions never
create duplicate work, a lease is an exclusive claim (even under
concurrent launchers), expiry returns a dead launcher's jobs instead
of losing them, and the per-job state machine rejects illegal jumps
with stable JOB00x codes.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import JobStoreError
from repro.obs import current_metrics, observe, session
from repro.workflow.jobstore import (
    JOB_STATES,
    LEGAL_TRANSITIONS,
    JobSpec,
    JobStore,
)


@pytest.fixture()
def store(db, clock):
    with JobStore(db, clock=clock) as jobstore:
        yield jobstore


def submit_n(store, count, owner="", tags=(), kind="noop",
             ready=True, max_attempts=3):
    return store.submit(
        [JobSpec(name=f"job-{i}", kind=kind, spec={"i": i},
                 max_attempts=max_attempts) for i in range(count)],
        owner=owner, tags=tags, ready=ready,
    )


class TestSubmission:
    def test_batch_insert_and_counts(self, store):
        result = submit_n(store, 10, owner="alice", tags=("t1",))
        assert len(result.inserted) == 10
        assert result.duplicates == []
        assert store.counts()["ready"] == 10
        assert store.counts(owner="alice")["ready"] == 10
        assert store.counts(owner="bob")["ready"] == 0
        assert store.counts(tag="t1")["ready"] == 10
        assert store.counts(tag="t2")["ready"] == 0

    def test_duplicate_submission_is_idempotent(self, store):
        first = submit_n(store, 5, owner="alice")
        again = submit_n(store, 5, owner="alice")
        assert again.inserted == []
        assert sorted(again.duplicates) == sorted(first.inserted)
        assert store.counts()["ready"] == 5

    def test_a_spec_repeated_in_one_batch_is_inserted_once(self, store):
        a, b = JobSpec(name="a", spec={"i": 1}), JobSpec(name="b")
        with observe(session()):
            result = store.submit([a, a, b])
            submitted = current_metrics().counter(
                "service.jobs_submitted").total()
        assert (result.inserted, result.duplicates) == ([1, 2], [1])
        assert submitted == 2
        assert store.counts()["ready"] == 2

    def test_duplicate_does_not_reset_state(self, store, clock):
        job_id = submit_n(store, 1).inserted[0]
        lease = store.lease("l1", 1)
        store.complete(job_id, lease.lease_id, {"digest": "d"})
        again = submit_n(store, 1)
        assert again.duplicates == [job_id]
        assert store.job(job_id).state == "done"

    def test_same_name_different_owner_is_distinct(self, store):
        a = submit_n(store, 3, owner="alice")
        b = submit_n(store, 3, owner="bob")
        assert len(a.inserted) == 3 and len(b.inserted) == 3
        assert store.counts()["ready"] == 6

    def test_key_is_the_content_not_the_attempt_budget(self, store):
        first = store.submit([JobSpec(name="x", spec={"i": 1})])
        other = JobSpec(name="x", spec={"i": 1}, max_attempts=9)
        again = store.submit([other])
        assert again.duplicates == first.inserted

    def test_job_key_is_content_derived(self, store):
        first = store.submit([JobSpec(name="n", spec={"x": 1})], owner="a")
        other = store.submit([JobSpec(name="n", spec={"x": 2})], owner="a")
        assert len(first.inserted) == len(other.inserted) == 1
        assert other.duplicates == []
        assert store.counts()["ready"] == 2

    def test_staged_then_release(self, store):
        ids = submit_n(store, 4, ready=False).inserted
        assert store.counts()["staged"] == 4
        assert len(store.lease("l1", 10).jobs) == 0
        assert store.release(ids[:2]) == 2
        assert store.counts() == {
            **{state: 0 for state in JOB_STATES},
            "staged": 2, "ready": 2,
        }


class TestLeasing:
    def test_lease_claims_oldest_ready_first(self, store):
        ids = submit_n(store, 6).inserted
        lease = store.lease("l1", 4)
        assert [job.id for job in lease.jobs] == sorted(ids)[:4]
        for job in lease.jobs:
            assert job.state == "running"
            assert job.attempts == 1
            assert job.launcher == "l1"

    def test_two_leases_partition_the_queue(self, store):
        submit_n(store, 6)
        first = store.lease("l1", 4)
        second = store.lease("l2", 4)
        ids_a = {job.id for job in first.jobs}
        ids_b = {job.id for job in second.jobs}
        assert len(ids_a) == 4 and len(ids_b) == 2
        assert not ids_a & ids_b

    def test_concurrent_leases_never_double_assign(self, tmp_path,
                                                   clock):
        with JobStore(tmp_path / "jobs.db", clock=clock) as seed:
            submit_n(seed, 200)
        claimed = {}

        def grab(name):
            got = []
            with JobStore(tmp_path / "jobs.db",
                          clock=clock) as local:
                while True:
                    lease = local.lease(name, 7)
                    if not lease.jobs:
                        break
                    got.extend(job.id for job in lease.jobs)
            claimed[name] = got

        threads = [
            threading.Thread(target=grab, args=(f"l{i}",))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        all_ids = [jid for ids in claimed.values() for jid in ids]
        assert len(all_ids) == 200
        assert len(set(all_ids)) == 200  # no double assignment

    def test_lease_expiry_requeues_jobs(self, store, clock):
        submit_n(store, 3)
        store.lease("dead", 3, ttl_s=30.0)
        clock.advance(10)
        assert store.expire_leases() == ([], [])
        clock.advance(25)
        requeued, failed = store.expire_leases()
        assert len(requeued) == 3 and failed == []
        assert store.counts()["ready"] == 3
        # the re-lease sees attempts carried over
        again = store.lease("alive", 3)
        assert all(job.attempts == 2 for job in again.jobs)

    def test_expiry_exhausts_attempts_to_failed(self, store, clock):
        submit_n(store, 1, max_attempts=2)
        store.lease("l1", 1, ttl_s=5.0)
        clock.advance(6)
        assert store.expire_leases()[0] != []
        store.lease("l2", 1, ttl_s=5.0)
        clock.advance(6)
        requeued, failed = store.expire_leases()
        assert requeued == [] and len(failed) == 1
        job = store.job(failed[0])
        assert job.state == "failed"
        assert "lease expired" in job.result["error"]

    def test_heartbeat_extends_the_lease(self, store, clock):
        submit_n(store, 2)
        lease = store.lease("l1", 2, ttl_s=10.0)
        clock.advance(8)
        refreshed, cancels = store.heartbeat(lease.lease_id,
                                             ttl_s=10.0)
        assert refreshed == 2 and cancels == []
        clock.advance(8)  # 16s after lease, 8s after heartbeat
        assert store.expire_leases() == ([], [])
        clock.advance(3)
        assert len(store.expire_leases()[0]) == 2

    @pytest.mark.parametrize("ttl_s", [0.0, -1.0])
    def test_a_lease_is_never_expired_when_handed_out(
            self, tmp_path, clock, ttl_s):
        # two launchers on one database and one clock: a lease that
        # expired on arrival would let B re-lease the job A still runs
        with JobStore(tmp_path / "jobs.db", clock=clock) as a, \
                JobStore(tmp_path / "jobs.db", clock=clock) as b:
            job_id = submit_n(a, 1).inserted[0]
            with pytest.raises(ValueError, match="ttl_s must be positive"):
                a.lease("A", 1, ttl_s=ttl_s)
            lease = a.lease("A", 1, ttl_s=1.0)
            with pytest.raises(ValueError, match="ttl_s must be positive"):
                a.heartbeat(lease.lease_id, ttl_s=ttl_s)
            clock.advance(0.001)
            assert b.expire_leases() == ([], [])
            assert b.lease("B", 1).jobs == []
            assert a.job(job_id).launcher == "A"

    def test_stale_lease_cannot_complete(self, store, clock):
        job_id = submit_n(store, 1).inserted[0]
        old = store.lease("dead", 1, ttl_s=5.0)
        clock.advance(6)
        store.expire_leases()
        new = store.lease("alive", 1)
        with pytest.raises(JobStoreError) as excinfo:
            store.complete(job_id, old.lease_id, {"digest": "x"})
        assert excinfo.value.code == "JOB003"
        # the rightful owner still can
        store.complete(job_id, new.lease_id, {"digest": "y"})
        assert store.job(job_id).result == {"digest": "y"}


class TestStateMachine:
    def test_legal_transition_table_shape(self):
        for source, target in LEGAL_TRANSITIONS:
            assert source in JOB_STATES and target in JOB_STATES
        # terminal states have no outgoing edges
        assert not [
            edge for edge in LEGAL_TRANSITIONS
            if edge[0] in ("done", "failed", "cancelled")
        ]

    def test_ready_cannot_jump_to_done(self, store):
        job_id = submit_n(store, 1).inserted[0]
        with pytest.raises(JobStoreError) as excinfo:
            store.complete(job_id, None)
        assert excinfo.value.code == "JOB002"
        assert store.job(job_id).state == "ready"

    def test_done_is_terminal(self, store):
        job_id = submit_n(store, 1).inserted[0]
        lease = store.lease("l1", 1)
        store.complete(job_id, lease.lease_id)
        with pytest.raises(JobStoreError) as excinfo:
            store.fail(job_id, None, "late failure")
        assert excinfo.value.code == "JOB002"
        assert store.job(job_id).state == "done"

    def test_staged_cannot_be_leased_or_completed(self, store):
        job_id = submit_n(store, 1, ready=False).inserted[0]
        assert store.lease("l1", 5).jobs == []
        with pytest.raises(JobStoreError) as excinfo:
            store.complete(job_id, None)
        assert excinfo.value.code == "JOB002"

    def test_unknown_job(self, store):
        with pytest.raises(JobStoreError) as excinfo:
            store.job(999)
        assert excinfo.value.code == "JOB001"
        with pytest.raises(JobStoreError):
            store.complete(999, "lease")

    def test_failure_retries_until_attempts_exhausted(self, store):
        job_id = submit_n(store, 1, max_attempts=2).inserted[0]
        lease = store.lease("l1", 1)
        assert store.fail(job_id, lease.lease_id, "boom") == "ready"
        lease = store.lease("l1", 1)
        assert store.fail(job_id, lease.lease_id, "boom") == "failed"
        job = store.job(job_id)
        assert job.state == "failed" and job.attempts == 2

    def test_single_attempt_failure_is_final(self, store):
        job_id = submit_n(store, 1, max_attempts=1).inserted[0]
        lease = store.lease("l1", 1)
        assert store.fail(job_id, lease.lease_id, "fatal") == "failed"
        assert store.job(job_id).result == {"error": "fatal"}


class TestCancellation:
    def test_cancel_queued_jobs_by_tag(self, store):
        submit_n(store, 4, tags=("nightly",))
        submit_n(store, 2, tags=("other",), owner="bob")
        cancelled, requested = store.cancel(tag="nightly")
        assert (cancelled, requested) == (4, 0)
        assert store.counts()["cancelled"] == 4
        assert store.counts(tag="other")["ready"] == 2

    def test_cancel_running_is_a_request(self, store):
        job_id = submit_n(store, 1, owner="alice").inserted[0]
        lease = store.lease("l1", 1)
        cancelled, requested = store.cancel(owner="alice")
        assert (cancelled, requested) == (0, 1)
        assert store.job(job_id).state == "running"
        refreshed, cancels = store.heartbeat(lease.lease_id)
        assert cancels == [job_id]
        store.cancel_leased(job_id, lease.lease_id)
        assert store.job(job_id).state == "cancelled"

    def test_expired_lease_with_cancel_request_is_cancelled(
            self, store, clock):
        # requeued as ``ready`` with the request still set, the job was
        # never leased again and never cancelled: no drain
        doomed, survivor = submit_n(store, 2).inserted
        store.lease("dead", 2, ttl_s=5.0)
        assert store.cancel([doomed]) == (0, 1)
        clock.advance(6)
        with observe(session()):
            assert store.expire_leases() == ([survivor], [])
            assert current_metrics().counter(
                "service.jobs_cancelled").total() == 1
        job = store.job(doomed)
        assert job.state == "cancelled"
        assert job.result == {"error": "cancelled"}
        assert job.lease_id is None
        again = store.lease("alive", 2)
        assert [leased.id for leased in again.jobs] == [survivor]
        store.complete(survivor, again.lease_id)
        assert store.drained()

    @pytest.mark.parametrize("attempts, reached, error", [
        (3, "cancelled", "cancelled"), (1, "failed", "boom")])
    def test_failure_with_a_cancel_request_is_not_requeued(
            self, store, attempts, reached, error):
        job_id = submit_n(store, 1, max_attempts=attempts).inserted[0]
        lease = store.lease("l1", 1)
        assert store.cancel([job_id]) == (0, 1)
        assert store.fail(job_id, lease.lease_id, "boom") == reached
        job = store.job(job_id)
        assert (job.state, job.result) == (reached, {"error": error})
        assert store.lease("l2", 1).jobs == []
        assert store.drained()

    def test_cancelled_jobs_are_not_leased(self, store):
        ids = submit_n(store, 3).inserted
        store.cancel(ids[:2])
        lease = store.lease("l1", 10)
        assert [job.id for job in lease.jobs] == [ids[2]]


class TestQueriesAndGc:
    def test_list_jobs_filters(self, store):
        submit_n(store, 3, owner="alice", tags=("a",))
        submit_n(store, 2, owner="bob", tags=("b",))
        assert len(store.list_jobs(owner="alice")) == 3
        assert len(store.list_jobs(tag="b")) == 2
        assert len(store.list_jobs(state="ready", limit=4)) == 4
        assert store.list_jobs(owner="alice", tag="b") == []

    def test_record_round_trip(self, store):
        job_id = store.submit(
            [JobSpec(name="n", kind="graph",
                     spec={"seed": 4, "tasks": 5})],
            owner="alice", tags=("x", "y"),
        ).inserted[0]
        job = store.job(job_id)
        assert job.name == "n" and job.kind == "graph"
        assert job.spec == {"seed": 4, "tasks": 5}
        assert job.tags == ("x", "y")
        assert job.owner == "alice"

    def test_gc_prunes_terminal_and_orphans(self, store):
        done_id, orphan_id, live_id = submit_n(store, 3).inserted
        lease = store.lease("l1", 1)
        store.complete(done_id, lease.lease_id)
        store.bind_run(orphan_id, "job-gone")
        store.bind_run(live_id, "job-live")
        finished, orphans = store.gc(live_run_ids=["job-live"])
        assert (finished, orphans) == (1, 1)
        remaining = [job.id for job in store.list_jobs()]
        assert remaining == [live_id]

    def test_gc_without_runstore_keeps_bound_jobs(self, store):
        job_id = submit_n(store, 1).inserted[0]
        store.bind_run(job_id, "job-x")
        assert store.gc() == (0, 0)
        assert store.job(job_id).id == job_id

    def test_schema_version_skew_is_rejected(self, db, clock):
        with JobStore(db, clock=clock) as jobstore:
            with jobstore._write():
                jobstore._conn.execute(
                    "UPDATE meta SET value='99' "
                    "WHERE key='schema_version'"
                )
        with pytest.raises(JobStoreError) as excinfo:
            JobStore(db, clock=clock)
        assert excinfo.value.code == "JOB004"

    def test_reopen_preserves_jobs(self, db, clock):
        with JobStore(db, clock=clock) as jobstore:
            submit_n(jobstore, 5)
        with JobStore(db, clock=clock) as jobstore:
            assert jobstore.counts()["ready"] == 5
