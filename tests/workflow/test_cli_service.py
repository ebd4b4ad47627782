"""CLI surface of the workflow service: every `repro service` command.

Drives ``repro service init|submit|status|launch|cancel`` (and
``repro runs gc --db``) exactly the way the two-terminal demo in the
README and the operator guide in docs/SERVICE.md do, through
:func:`repro.cli.main`, asserting on the printed contract users see.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.workflow.jobstore import JobSpec, JobStore


@pytest.fixture()
def db(tmp_path):
    return str(tmp_path / "jobs.db")


def submit_args(db, count=4, *extra):
    return [
        "service", "submit", "--db", db, "--count", str(count),
        "--kind", "chaos", "--tasks", "9", "--owner", "alice",
        "--tag", "nightly", *extra,
    ]


class TestServiceCLI:
    def test_init_creates_the_store(self, db, capsys):
        assert main(["service", "init", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "job store ready" in out
        assert "schema v1" in out

    def test_submit_then_duplicate_submit(self, db, capsys):
        assert main(submit_args(db)) == 0
        assert "submitted 4 ready job(s), 0 duplicate(s)" in (
            capsys.readouterr().out
        )
        # byte-identical resubmission is a no-op
        assert main(submit_args(db)) == 0
        assert "submitted 0 ready job(s), 4 duplicate(s)" in (
            capsys.readouterr().out
        )

    def test_submit_staged_and_status_tables(self, db, capsys):
        assert main(submit_args(db, 3, "--staged")) == 0
        assert "3 staged job(s)" in capsys.readouterr().out
        assert main(["service", "status", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "staged" in out and "nightly" not in out
        assert f"job store {db}" in out

    def test_status_json_with_filters(self, db, capsys):
        main(submit_args(db))
        main(["service", "submit", "--db", db, "--count", "2",
              "--kind", "noop", "--owner", "bob"])
        capsys.readouterr()
        assert main([
            "service", "status", "--db", db, "--owner", "alice",
            "--tag", "nightly", "--state", "ready", "--limit", "10",
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["ready"] == 4
        assert len(payload["jobs"]) == 4
        for job in payload["jobs"]:
            assert job["owner"] == "alice"
            assert job["tags"] == ["nightly"]
            assert job["state"] == "ready"

    def test_launch_drains_and_reports(self, db, capsys):
        main(submit_args(db, 3))
        capsys.readouterr()
        assert main([
            "service", "launch", "--db", db, "--launcher-id", "l0",
            "--lease-size", "2", "--lease-ttl", "60",
            "--heartbeat-every", "2", "--exit-on-idle",
        ]) == 0
        out = capsys.readouterr().out
        assert "launcher l0: 3 completed, 0 failed" in out
        assert main(["service", "status", "--db", db,
                     "--state", "done"]) == 0
        out = capsys.readouterr().out
        assert out.count("done") >= 3

    def test_launch_max_jobs(self, db, capsys):
        main(submit_args(db, 5))
        capsys.readouterr()
        assert main(["service", "launch", "--db", db,
                     "--launcher-id", "l0", "--max-jobs", "2"]) == 0
        assert "2 completed" in capsys.readouterr().out

    def test_launch_exit_code_reports_failures(self, db, capsys):
        # an unknown kind can only arrive via the client API (the CLI
        # validates --kind), e.g. from a newer client version
        with JobStore(db) as store:
            store.submit([JobSpec(name="bad", kind="quantum",
                                  spec={}, max_attempts=1)])
        assert main(["service", "launch", "--db", db,
                     "--exit-on-idle"]) == 1
        assert "1 failed" in capsys.readouterr().out

    def test_durable_launch_and_runs_gc_db(self, db, tmp_path,
                                           capsys):
        runs = str(tmp_path / "runs")
        assert main(submit_args(db, 2, "--durable")) == 0
        assert main(["service", "launch", "--db", db,
                     "--journal-dir", runs, "--exit-on-idle"]) == 0
        capsys.readouterr()
        # each durable job left a journaled run named job-<id>
        assert main(["runs", "list", "--journal-dir", runs]) == 0
        out = capsys.readouterr().out
        assert "job-" in out and "service" in out

        # gc: journals of finished runs plus the finished job rows
        assert main(["runs", "gc", "--journal-dir", runs,
                     "--db", db]) == 0
        out = capsys.readouterr().out
        assert "pruned 2 finished and 0 orphaned job row(s)" in out
        assert main(["service", "status", "--db", db, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(count == 0
                   for count in payload["counts"].values())

    def test_stores_sharing_a_run_store_never_swap_results(
            self, tmp_path, capsys):
        """Two job stores, one ``--journal-dir``: each store's first
        job maps to run ``job-1``. B's job has another recipe, so it
        fails with WF009 naming that run instead of reporting A's
        digest without running."""
        runs = str(tmp_path / "runs")
        jobs = {}
        for store, seed in (("a", "0"), ("b", "7")):
            db = str(tmp_path / f"{store}.db")
            assert main(["service", "submit", "--db", db, "--count", "1",
                         "--kind", "chaos", "--graph-seed", seed,
                         "--durable", "--max-attempts", "1"]) == 0
            main(["service", "launch", "--db", db, "--journal-dir", runs,
                  "--exit-on-idle"])
            capsys.readouterr()
            assert main(["service", "status", "--db", db, "--json"]) == 0
            [jobs[store]] = json.loads(capsys.readouterr().out)["jobs"]
        assert jobs["a"]["state"] == "done"
        assert jobs["b"]["state"] == "failed"
        assert jobs["b"]["result"]["error"].startswith(
            "WF009: run 'job-1'")
        assert jobs["a"]["result"]["digest"] not in json.dumps(jobs["b"])

    def test_cancel_by_tag_owner_and_id(self, db, capsys):
        ids = []
        with JobStore(db) as store:
            ids = store.submit(
                [JobSpec(name=f"n{i}", spec={"i": i})
                 for i in range(3)],
                owner="alice", tags=("nightly",),
            ).inserted
        capsys.readouterr()
        assert main(["service", "cancel", "--db", db,
                     "--job", str(ids[0])]) == 0
        assert "cancelled 1 queued job(s)" in (
            capsys.readouterr().out
        )
        assert main(["service", "cancel", "--db", db,
                     "--tag", "nightly"]) == 0
        assert "cancelled 2 queued job(s)" in (
            capsys.readouterr().out
        )
        assert main(["service", "cancel", "--db", db,
                     "--owner", "alice"]) == 0
        assert "cancelled 0 queued job(s)" in (
            capsys.readouterr().out
        )

    def test_cancel_requires_a_selector(self, db, capsys):
        assert main(["service", "init", "--db", db]) == 0
        assert main(["service", "cancel", "--db", db]) == 2
        assert "repro service: error: cancel needs job ids" in (
            capsys.readouterr().err
        )

    def test_full_two_terminal_demo_round_trip(self, db, capsys):
        """The README quickstart, end to end in one process."""
        assert main(["service", "init", "--db", db]) == 0
        assert main([
            "service", "submit", "--db", db, "--count", "8",
            "--kind", "chaos", "--graph-seed", "0",
            "--fault-seed", "1", "--tasks", "9",
            "--owner", "alice", "--tag", "sweep",
        ]) == 0
        assert main(["service", "launch", "--db", db,
                     "--launcher-id", "l0", "--lease-size", "4",
                     "--exit-on-idle"]) == 0
        capsys.readouterr()
        assert main(["service", "status", "--db", db,
                     "--tag", "sweep", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["done"] == 8
        digests = [job["result"]["digest"]
                   for job in payload["jobs"]]
        assert len(digests) == 8
        assert all(len(digest) == 16 for digest in digests)
