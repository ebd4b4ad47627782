"""Launcher contention and crash recovery — the service acceptance bar.

The two headline guarantees of the multi-tenant split, as tests:

* **zero double-executions** — two launchers draining one store
  complete a 1k-job workload with every job executed exactly once
  (the lease transaction is the only arbiter);
* **zero lost jobs** — a launcher killed mid-lease merely times out;
  its unfinished jobs are re-leased and completed by a survivor, and
  a durable chaos job interrupted mid-journal *resumes* on the second
  launcher with a trace digest byte-identical to the unbroken run
  (the PR 6 contract carried through the service layer).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs import observe, session
from repro.workflow.client import ServiceClient
from repro.workflow.jobstore import JobSpec, JobStore
from repro.workflow.journal import JOURNAL_FILE
from repro.workflow.launcher import SERVICE_RUN_KIND, Launcher
from repro.workflow.runstore import RunStore


CHAOS_SPEC = {
    "graph_seed": 2, "fault_seed": 1, "tasks": 9, "workers": 3,
}


def submit_noops(db_path, count, **kwargs):
    with JobStore(db_path) as store:
        return store.submit(
            [JobSpec(name=f"noop-{i}", spec={"i": i})
             for i in range(count)],
            **kwargs,
        )


def truncate(journal_path, keep_lines: int):
    """Crash simulation: keep only a prefix of the journal."""
    lines = journal_path.read_bytes().splitlines(keepends=True)
    journal_path.write_bytes(b"".join(lines[:keep_lines]))


class TestSingleLauncher:
    def test_drains_noop_jobs(self, db):
        submit_noops(db, 10)
        stats = Launcher(db, lease_size=4).run()
        assert stats.completed == 10
        assert stats.failed == 0
        assert stats.leases == 3
        with JobStore(db) as store:
            assert store.drained()
            for job in store.list_jobs(state="done"):
                assert job.result["digest"]

    def test_executes_graph_and_chaos_kinds(self, db):
        with JobStore(db) as store:
            store.submit([
                JobSpec(name="g", kind="graph",
                        spec={"seed": 3, "tasks": 6, "workers": 2}),
                JobSpec(name="c", kind="chaos", spec=CHAOS_SPEC),
            ])
        stats = Launcher(db).run()
        assert stats.completed == 2
        with JobStore(db) as store:
            for job in store.list_jobs(state="done"):
                assert len(job.result["digest"]) == 16
                assert job.result["makespan"] > 0

    def test_chaos_kind_is_seed_deterministic(self, tmp_path):
        digests = []
        for attempt in range(2):
            db = tmp_path / f"jobs-{attempt}.db"
            with JobStore(db) as store:
                store.submit([JobSpec(name="c", kind="chaos",
                                      spec=CHAOS_SPEC)])
            Launcher(db).run()
            with JobStore(db) as store:
                job = store.list_jobs(state="done")[0]
                digests.append(job.result["digest"])
        assert digests[0] == digests[1]

    def test_unknown_kind_fails_with_recorded_error(self, db):
        with JobStore(db) as store:
            store.submit([JobSpec(name="bad", kind="quantum",
                                  spec={}, max_attempts=2)])
        stats = Launcher(db).run()
        assert stats.completed == 0
        assert stats.failed == 2  # retried once, then exhausted
        with JobStore(db) as store:
            job = store.list_jobs(state="failed")[0]
            assert "unknown job kind" in job.result["error"]
            assert job.attempts == 2

    def test_chaos_job_with_a_negative_count_fails(self, db):
        """It used to end ``done`` with makespan 0 (an empty graph)."""
        with JobStore(db) as store:
            store.submit([JobSpec(name="c", kind="chaos", max_attempts=1,
                                  spec={**CHAOS_SPEC, "tasks": -4})])
        stats = Launcher(db).run()
        assert (stats.completed, stats.failed) == (0, 1)
        with JobStore(db) as store:
            job, = store.list_jobs(state="failed")
            assert "at least one task, got -4" in job.result["error"]

    def test_max_jobs_stops_early(self, db):
        submit_noops(db, 10)
        stats = Launcher(db, lease_size=4).run(max_jobs=5)
        assert stats.executed == 5
        with JobStore(db) as store:
            counts = store.counts()
            assert counts["done"] == 5
            # the rest of the open lease is still held
            assert counts["running"] + counts["ready"] == 5

    def test_cancelled_jobs_are_skipped(self, db):
        ids = submit_noops(db, 6).inserted
        with JobStore(db) as store:
            store.cancel(ids[:2])
        stats = Launcher(db).run()
        assert stats.completed == 4
        with JobStore(db) as store:
            assert store.counts()["cancelled"] == 2

    def test_a_job_cancelled_while_it_fails_counts_as_cancelled(self, db):
        submit_noops(db, 1)

        class CancelThenRaise(Launcher):
            def execute_job(self, job, store):
                store.cancel([job.id])
                raise RuntimeError("boom")

        stats = CancelThenRaise(db).run()
        assert (stats.completed, stats.failed, stats.cancelled) == (0, 0, 1)
        with JobStore(db) as store:
            assert store.drained() and store.counts()["cancelled"] == 1

    def test_emits_service_metrics(self, db):
        with observe(session()):
            from repro.obs import current_metrics

            submit_noops(db, 6)
            Launcher(db, launcher_id="l0", lease_size=3).run()
            metrics = current_metrics()
            assert metrics.counter(
                "service.jobs_submitted").total() == 6
            assert metrics.counter(
                "service.jobs_leased").total() == 6
            assert metrics.counter(
                "service.jobs_completed").total() == 6
            assert metrics.histogram(
                "service.lease_seconds").count(launcher="l0") >= 2
            assert metrics.histogram(
                "service.job_seconds").count(kind="noop") == 6


class TestContention:
    def test_two_launchers_1k_jobs_zero_double_executions(self, db):
        submitted = submit_noops(db, 1000).inserted
        launchers = [
            Launcher(db, launcher_id=f"l{i}", lease_size=16)
            for i in range(2)
        ]
        stats = [None, None]

        def drain(index):
            stats[index] = launchers[index].run()

        threads = [
            threading.Thread(target=drain, args=(i,))
            for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # the two launchers partition the submission; how it splits is
        # the thread scheduler's business (one may drain it all)
        first, second = (set(stat.job_ids) for stat in stats)
        assert len(stats[0].job_ids) + len(stats[1].job_ids) == 1000, \
            "no job executed twice"
        assert not first & second
        assert first | second == set(submitted), "every job executed"
        with JobStore(db) as store:
            assert store.drained()
            assert store.counts()["done"] == 1000


class TestCrashRecovery:
    def test_killed_launcher_loses_no_jobs(self, db, clock):
        with JobStore(db, clock=clock) as store:
            store.submit([
                JobSpec(name=f"n{i}", spec={"i": i})
                for i in range(12)
            ])
        # launcher 1 dies after 5 jobs, mid-lease, without ever
        # reporting back — exactly what SIGKILL looks like
        dead = Launcher(db, launcher_id="dead", lease_size=8,
                        lease_ttl_s=30.0, clock=clock)
        stats = dead.run(crash_after=5)
        assert stats.crashed and stats.completed == 5
        with JobStore(db, clock=clock) as store:
            assert store.counts()["running"] == 3  # still leased

        clock.advance(31)  # the dead launcher's lease expires
        alive = Launcher(db, launcher_id="alive", lease_size=8,
                         clock=clock)
        stats2 = alive.run()
        assert not stats2.crashed
        with JobStore(db, clock=clock) as store:
            counts = store.counts()
            assert counts["done"] == 12, "no job was lost"
            assert counts["failed"] == 0
        # the two launchers together executed each job exactly once
        executed = stats.job_ids + stats2.job_ids
        assert len(set(executed)) == len(executed) == 12

    def test_durable_chaos_resumes_byte_identical(self, db, clock, tmp_path):
        runs = tmp_path / "runs"
        spec = {**CHAOS_SPEC, "durable": True}
        with JobStore(db, clock=clock) as store:
            job_id = store.submit(
                [JobSpec(name="durable", kind="chaos", spec=spec)]
            ).inserted[0]

            # launcher 1 leases the job, journals and executes it —
            # then "crashes" before reporting: the result is
            # discarded and the lease left hanging
            dead = Launcher(db, launcher_id="dead",
                            run_store=RunStore(runs), clock=clock)
            lease = store.lease("dead", 1, ttl_s=30.0)
            result = dead.execute_job(lease.jobs[0], store)
            expected = result["digest"]

            # the crash also tore the journal: only the first third
            # of the run survives on disk
            journal = runs / f"job-{job_id}" / JOURNAL_FILE
            total = len(journal.read_bytes().splitlines())
            truncate(journal, total // 3)

            clock.advance(31)

        alive = Launcher(db, launcher_id="alive",
                         run_store=RunStore(runs), clock=clock)
        stats = alive.run()
        assert stats.completed == 1
        with JobStore(db, clock=clock) as store:
            job = store.job(job_id)
            assert job.state == "done"
            assert job.result["digest"] == expected, (
                "resumed digest must match the unbroken run"
            )
            assert job.result["resumed"] is True
            assert job.run_id == f"job-{job_id}"
        meta = RunStore(runs).load_meta(f"job-{job_id}")
        assert meta["kind"] == SERVICE_RUN_KIND
        assert meta["attempts"] == 2

    def test_finished_journal_short_circuits_reexecution(
            self, db, clock, tmp_path):
        runs = tmp_path / "runs"
        spec = {**CHAOS_SPEC, "durable": True}
        with JobStore(db, clock=clock) as store:
            job_id = store.submit(
                [JobSpec(name="durable", kind="chaos", spec=spec)]
            ).inserted[0]
            # crash *after* the journal is complete but before the
            # store heard about it: the resume replays to the end
            # and returns without executing anything
            dead = Launcher(db, launcher_id="dead",
                            run_store=RunStore(runs), clock=clock)
            lease = store.lease("dead", 1, ttl_s=30.0)
            expected = dead.execute_job(lease.jobs[0],
                                        store)["digest"]
            clock.advance(31)

        alive = Launcher(db, launcher_id="alive",
                         run_store=RunStore(runs), clock=clock)
        assert alive.run().completed == 1
        with JobStore(db, clock=clock) as store:
            job = store.job(job_id)
            assert job.result["digest"] == expected
            assert job.result["resumed"] is True

    def test_nondurable_chaos_survives_relaunch_by_rerun(self, db, clock):
        # without `durable` the job has no journal; recovery is a
        # plain re-execution, deterministic because the spec seeds it
        with JobStore(db, clock=clock) as store:
            store.submit([JobSpec(name="c", kind="chaos",
                                  spec=CHAOS_SPEC)])
            store.lease("dead", 1, ttl_s=30.0)  # claimed, never run
            clock.advance(31)
        stats = Launcher(db, launcher_id="alive", clock=clock).run()
        assert stats.completed == 1
        with JobStore(db, clock=clock) as store:
            job = store.list_jobs(state="done")[0]
            assert job.attempts == 2
            assert "resumed" not in job.result


class TestStaleLease:
    """A launcher that outlives its lease keeps draining.

    ``docs/SERVICE.md`` promises a late result is "discarded …
    harmless but wasteful"; before the fix the ``JOB003`` answer to
    the late report escaped ``Launcher.run`` as a traceback.
    """

    #: report -> (job 0's kind, job 1's attempts, jobs the late
    #: launcher finishes before its lease is taken, final counts)
    CASES = {
        "complete": ("noop", 3, 0, {"done": 6}),
        "fail": ("bogus", 3, 0, {"done": 5, "failed": 1}),
        # the cancel arrives while the lease is held, and the job it
        # names has no attempt left when the lease expires
        "cancel_leased": ("noop", 1, 1, {"done": 5, "failed": 1}),
    }

    @pytest.mark.parametrize("report", sorted(CASES))
    def test_late_report_is_discarded_and_the_drain_goes_on(
            self, db, clock, monkeypatch, report):
        first_kind, second_attempts, finished_first, final = \
            self.CASES[report]
        with JobStore(db, clock=clock) as store:
            ids = store.submit([
                JobSpec(name=f"n{i}", spec={"i": i},
                        kind=first_kind if i == 0 else "noop",
                        max_attempts=second_attempts if i == 1 else 3)
                for i in range(6)
            ]).inserted
        late = Launcher(db, launcher_id="late", lease_size=6,
                        lease_ttl_s=60.0, heartbeat_every=1,
                        clock=clock)
        thief = Launcher(db, launcher_id="thief", lease_size=6,
                         clock=clock)
        thief_stats = []
        reported = getattr(JobStore, report)

        def report_late(store, *args, **kwargs):
            # the job took longer than the TTL: by the time the late
            # launcher reports, another one has reclaimed its lease
            # and drained the store
            monkeypatch.setattr(JobStore, report, reported)  # once
            clock.advance(61)
            thief_stats.append(thief.run())
            return reported(store, *args, **kwargs)

        monkeypatch.setattr(JobStore, report, report_late)
        if report == "cancel_leased":
            execute = late.execute_job

            def execute_then_cancel_next(job, store):
                store.cancel([ids[1]])
                return execute(job, store)

            monkeypatch.setattr(late, "execute_job",
                                execute_then_cancel_next)

        late_stats = late.run()  # raised JobStoreError before the fix

        assert late_stats.executed == finished_first
        assert late_stats.leases == 1 and not late_stats.crashed
        executed = late_stats.job_ids + thief_stats[0].job_ids
        with JobStore(db, clock=clock) as store:
            assert store.drained()
            counts = store.counts()
            assert {s: n for s, n in counts.items() if n} == final
            done = store.list_jobs(state="done")
        # the thief's results stand: nothing the late launcher ran
        # after losing the lease was recorded
        for job in done:
            if job.id not in late_stats.job_ids:
                assert job.launcher == "thief"
        assert sorted(executed) == sorted(job.id for job in done)
        assert len(set(executed)) == len(executed)


class TestClientWait:
    def test_wait_returns_once_a_launcher_drains_the_store(self, db):
        submit_noops(db, 6)
        with ServiceClient(db) as client:
            assert not client.drained()
            launcher = threading.Thread(
                target=Launcher(db, lease_size=2).run)
            launcher.start()
            try:
                assert client.wait(timeout_s=30.0, poll_s=0.01) is True
            finally:
                launcher.join()
            assert client.counts()["done"] == 6

    def test_wait_times_out_while_a_ready_job_has_no_launcher(self, db):
        submit_noops(db, 1)
        with ServiceClient(db) as client:
            started = time.monotonic()
            assert client.wait(timeout_s=0.2, poll_s=0.02) is False
            assert time.monotonic() - started < 5.0
            assert client.counts()["ready"] == 1
