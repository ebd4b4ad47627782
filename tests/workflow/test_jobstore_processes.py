"""Three launcher processes drain one store; one is SIGKILLed mid-lease.

The claim is a single ``UPDATE … RETURNING`` statement, so two
processes racing for the ready queue must still partition it. Each
launcher process appends the id of every job it starts to its own side
file; the victim kills itself with ``SIGKILL`` as it is about to start
a job in the middle of its second lease, so the rest of that lease is
held by a dead process until the short TTL hands it back. Every job
must end ``done`` and appear in exactly one side file, once.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.workflow.jobstore import JobSpec, JobStore

JOBS = 1000
LEASE_SIZE = 16
#: the victim dies starting its 21st job: 4 jobs into its 2nd lease
KILL_AT = 20

LAUNCHER = """
import os, signal, sys
from repro.workflow.launcher import Launcher

db, side, name, kill_at = sys.argv[1], sys.argv[2], sys.argv[3], \\
    int(sys.argv[4])


class Counting(Launcher):
    started = 0

    def execute_job(self, job, store):
        if self.started == kill_at:
            os.kill(os.getpid(), signal.SIGKILL)
        with open(side, "a") as out:
            out.write(f"{job.id}\\n")
        self.started += 1
        return super().execute_job(job, store)


Counting(db, launcher_id=name, lease_size=%d, lease_ttl_s=1.5,
         heartbeat_every=4).run()
""" % LEASE_SIZE


def launch(tmp_path, name, kill_at=-1):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    return subprocess.Popen(
        [sys.executable, "-c", LAUNCHER, str(tmp_path / "jobs.db"),
         str(tmp_path / f"{name}.ids"), name, str(kill_at)],
        env=env,
    )


def started(tmp_path, name):
    path = tmp_path / f"{name}.ids"
    return [int(line) for line in path.read_text().split()] \
        if path.exists() else []


def test_three_processes_one_killed_mid_lease_execute_each_job_once(
        tmp_path):
    with JobStore(tmp_path / "jobs.db") as store:
        ids = store.submit(
            [JobSpec(name=f"n{i}", spec={"i": i}) for i in range(JOBS)]
        ).inserted
    victim = launch(tmp_path, "victim", KILL_AT)
    deadline = time.monotonic() + 60
    while not started(tmp_path, "victim") and victim.poll() is None:
        assert time.monotonic() < deadline
        time.sleep(0.01)
    survivors = [launch(tmp_path, name) for name in ("s1", "s2")]
    assert victim.wait(timeout=60) == -signal.SIGKILL
    assert [proc.wait(timeout=60) for proc in survivors] == [0, 0]

    runs = {name: started(tmp_path, name)
            for name in ("victim", "s1", "s2")}
    assert len(runs["victim"]) == KILL_AT
    every = [job_id for run in runs.values() for job_id in run]
    assert sorted(every) == sorted(ids)  # each job started exactly once
    with JobStore(tmp_path / "jobs.db") as store:
        assert store.counts()["done"] == JOBS
        assert store.drained()
        reclaimed = [job for job in store.list_jobs(limit=JOBS)
                     if job.attempts > 1]
    # the victim's second lease, less the four jobs it finished
    assert len(reclaimed) == LEASE_SIZE - (KILL_AT - LEASE_SIZE)
    assert not {job.id for job in reclaimed} & set(runs["victim"])
