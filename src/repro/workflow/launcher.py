"""Launchers: detached processes that lease and execute jobs.

A launcher is the service's compute side (Balsam's ``balsamlauncher``
shape): it connects to the shared :class:`~repro.workflow.jobstore.
JobStore`, leases a batch of ready jobs, executes them one by one on
the simulated platform, heartbeats its lease while it works, and
reports each job ``done``/``failed`` back to the store. Many
launchers drain one store concurrently — the lease transaction
guarantees no job is ever assigned to two of them — and a launcher
that dies mid-lease merely lets its lease expire: the store returns
its unfinished jobs to the ready queue for the survivors.

Job kinds a launcher knows how to execute:

``noop``
    No work; the result digest is derived from the spec. The
    throughput yardstick.
``graph``
    A seeded random task graph (``seed``, ``tasks``, ``workers``)
    executed fault-free on the :class:`ResilientServer`; the result
    records the deterministic trace digest.
``chaos``
    A seeded fault-injection scenario (``graph_seed``, ``fault_seed``,
    ``tasks``, ``workers``, fault counts) on the same server. With
    ``durable: true`` in the spec and a run store attached, the
    execution is write-ahead journaled
    under run id ``job-<id>`` — a launcher killed mid-job leaves a
    resumable journal, and the re-execution reproduces the unbroken
    run's trace digest byte-identically (the PR 6 contract).

Unknown kinds fail the job with its error recorded, so a newer
client's submissions degrade loudly, not silently.
"""

from __future__ import annotations

import hashlib
import time
import uuid
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from repro.chaos.schedule import ChaosConfig, generate_schedule
from repro.errors import JobStoreError
from repro.obs import current_metrics
from repro.workflow.graph import random_task_graph
from repro.workflow.jobstore import (
    JobRecord,
    JobStore,
    canonical_spec,
)
from repro.workflow.recovery import ResilientServer
from repro.workflow.runstore import RunStore
from repro.workflow.scheduler import make_policy
from repro.workflow.worker import Worker

#: Run-store ``kind`` for journaled service job executions.
SERVICE_RUN_KIND = "service"

#: While other launchers still hold running jobs, an idle launcher
#: polls this often, this many times, before it gives up.
_IDLE_SLEEP_S = 0.02
_MAX_IDLE_POLLS = 500


def _noop_job(spec: Dict) -> Dict:
    digest = hashlib.sha256(
        canonical_spec(spec).encode()
    ).hexdigest()[:16]
    return {"digest": digest}


def _worker_pool(count: int) -> List[Worker]:
    return [
        Worker(f"w{index}", node_name=f"n{index}", cpus=2)
        for index in range(count)
    ]


def _graph_job(spec: Dict) -> Dict:
    graph = random_task_graph(
        int(spec.get("seed", 0)),
        num_tasks=int(spec.get("tasks", 6)),
    )
    workers = _worker_pool(int(spec.get("workers", 2)))
    trace, _ = ResilientServer(workers).run(graph)
    return {"digest": trace.digest(), "makespan": trace.makespan}


#: What a ``chaos`` job runs when its spec leaves a recipe key out.
_CHAOS_JOB_DEFAULTS = {
    "graph_seed": 0, "fault_seed": 0, "tasks": 9, "workers": 3,
    "policy": "b-level", "crashes": 1, "link_faults": 1,
    "reconfig_faults": 1, "stragglers": 1, "task_faults": 1,
}

#: The keys that fully determine a chaos run: what ``repro chaos``
#: persists in the run store and restores on ``--resume``.
CHAOS_RECIPE_KEYS = tuple(_CHAOS_JOB_DEFAULTS)


def chaos_run(recipe: Mapping, journal=None, resume=None):
    """One deterministic chaos run of a complete recipe (every one of
    :data:`CHAOS_RECIPE_KEYS` present): seeded graph, 2-cpu pool,
    seeded fault schedule, resilient server.

    Returns ``(graph, schedule, trace, stats)``.
    """
    graph = random_task_graph(
        int(recipe["graph_seed"]), num_tasks=int(recipe["tasks"]),
    )
    workers = _worker_pool(int(recipe["workers"]))
    config = ChaosConfig(
        crashes=int(recipe["crashes"]),
        link_faults=int(recipe["link_faults"]),
        reconfig_faults=int(recipe["reconfig_faults"]),
        stragglers=int(recipe["stragglers"]),
        task_faults=int(recipe["task_faults"]),
    )
    schedule = generate_schedule(
        graph, [worker.name for worker in workers],
        int(recipe["fault_seed"]), config,
    )
    server = ResilientServer(
        workers, policy=make_policy(recipe["policy"]),
    )
    trace, stats = server.run(
        graph, chaos=schedule, journal=journal, resume=resume,
    )
    return graph, schedule, trace, stats


def _chaos_job(spec: Dict, journal=None, resume=None) -> Dict:
    _graph, _schedule, trace, stats = chaos_run(
        {**_CHAOS_JOB_DEFAULTS, **spec}, journal=journal, resume=resume,
    )
    return {
        "digest": trace.digest(),
        "makespan": trace.makespan,
        "retries": stats.retries,
    }


@dataclass
class LauncherStats:
    """What one :meth:`Launcher.run` drain accomplished."""

    leases: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    crashed: bool = False
    job_ids: list = field(default_factory=list)

    @property
    def executed(self) -> int:
        """Jobs this launcher finished, one way or another."""
        return self.completed + self.failed + self.cancelled


class Launcher:
    """Leases batches of ready jobs from a store and executes them.

    ``lease_ttl_s`` is how long the store waits for a heartbeat before
    declaring this launcher dead and re-leasing its jobs;
    ``heartbeat_every`` is how many jobs it executes between
    heartbeats (so the TTL must comfortably cover that many job
    durations — tuning guidance in ``docs/SERVICE.md``). A ``clock``
    override propagates to the store connection, keeping lease-expiry
    semantics testable without sleeping.
    """

    def __init__(
        self,
        db_path,
        launcher_id: Optional[str] = None,
        lease_size: int = 8,
        lease_ttl_s: float = 60.0,
        heartbeat_every: int = 4,
        run_store: Optional[RunStore] = None,
        clock: Optional[Callable[[], float]] = None,
    ):
        """Configure a launcher against the store at ``db_path``."""
        self.db_path = db_path
        self.launcher_id = (
            launcher_id or f"launcher-{uuid.uuid4().hex[:6]}"
        )
        self.lease_size = max(1, lease_size)
        self.lease_ttl_s = lease_ttl_s
        self.heartbeat_every = max(1, heartbeat_every)
        self.run_store = run_store
        self.clock = clock

    # -- job execution -------------------------------------------------

    def execute_job(self, job: JobRecord,
                    store: JobStore) -> Dict:
        """Run one job's payload; returns its result record.

        Durable chaos jobs are journaled in the run store under
        ``job-<id>``; if that run already exists in-flight (a previous
        launcher died mid-job), the journal is replayed and execution
        *resumes* — already-executed payloads are skipped and the
        digest matches an unbroken run. A run of that id recorded for
        another job (another job store sharing the run store) fails
        the job with ``WF009`` instead of reporting that run's digest.
        """
        spec = dict(job.spec)
        kind = job.kind
        if kind == "noop":
            return _noop_job(spec)
        if kind == "graph":
            return _graph_job(spec)
        if kind == "chaos":
            if spec.get("durable") and self.run_store is not None:
                return self._durable_chaos(job, spec, store)
            return _chaos_job(spec)
        raise ValueError(f"unknown job kind {kind!r}")

    def _durable_chaos(self, job: JobRecord, spec: Dict,
                       store: JobStore) -> Dict:
        run_id, _recipe, resume, journal = self.run_store.open(
            SERVICE_RUN_KIND, run_id=job.run_id or f"job-{job.id}",
            recipe={"job": job.id, "name": job.name, **spec},
        )
        if resume is not None and resume.finished:
            journal.close()
            return {"digest": resume.digest, "resumed": True}
        store.bind_run(job.id, run_id)
        try:
            result = _chaos_job(spec, journal=journal, resume=resume)
        finally:
            journal.close()
        if resume is not None:
            result["resumed"] = True
        return result

    # -- the drain loop ------------------------------------------------

    def run(
        self,
        max_jobs: Optional[int] = None,
        exit_on_idle: bool = False,
        crash_after: Optional[int] = None,
    ) -> LauncherStats:
        """Lease and execute until the store drains; returns stats.

        The loop reclaims expired leases, takes a batch, executes it
        with heartbeats every ``heartbeat_every`` jobs, and exits once
        no job is staged, ready or running. A lease the store took
        back while a job ran (``JOB003`` on reporting it) is abandoned
        where it stands — the job belongs to whoever holds it now —
        and the loop leases again. While other launchers
        still hold running jobs it polls (their jobs may yet expire
        back into the queue); ``exit_on_idle`` exits at the first
        empty lease instead. ``crash_after`` is the test/chaos hook:
        the launcher "dies" after finishing that many jobs, leaving
        the rest of its lease held but unheartbeated — exactly what a
        SIGKILL does.
        """
        stats = LauncherStats()
        metrics = current_metrics()
        with JobStore(self.db_path, clock=self.clock) as store:
            idle = 0
            while True:
                store.expire_leases()
                lease = store.lease(
                    self.launcher_id, self.lease_size,
                    ttl_s=self.lease_ttl_s,
                )
                if not lease.jobs:
                    if store.drained():
                        break
                    if exit_on_idle:
                        break
                    idle += 1
                    if idle >= _MAX_IDLE_POLLS:
                        break
                    time.sleep(_IDLE_SLEEP_S)
                    continue
                idle = 0
                stats.leases += 1
                cancels = {
                    job.id for job in lease.jobs
                    if job.cancel_requested
                }
                since_heartbeat = 0
                for job in lease.jobs:
                    if (crash_after is not None
                            and stats.executed >= crash_after):
                        stats.crashed = True
                        return stats
                    try:
                        if job.id in cancels:
                            store.cancel_leased(job.id, lease.lease_id)
                            stats.cancelled += 1
                            continue
                        started = time.perf_counter()
                        try:
                            result = self.execute_job(job, store)
                        except Exception as exc:
                            store.fail(job.id, lease.lease_id,
                                       str(exc))
                            stats.failed += 1
                        else:
                            store.complete(job.id, lease.lease_id,
                                           result)
                            stats.completed += 1
                            stats.job_ids.append(job.id)
                    except JobStoreError as exc:
                        if exc.code != "JOB003":
                            raise
                        # This launcher outlived its lease: the store
                        # took the whole lease back, so the late
                        # result is discarded and the jobs left in it
                        # are someone else's now.
                        break
                    metrics.histogram(
                        "service.job_seconds",
                        "wall time of one job execution",
                    ).observe(time.perf_counter() - started,
                              kind=job.kind)
                    since_heartbeat += 1
                    if since_heartbeat >= self.heartbeat_every:
                        _n, cancel_ids = store.heartbeat(
                            lease.lease_id, ttl_s=self.lease_ttl_s,
                        )
                        cancels.update(cancel_ids)
                        since_heartbeat = 0
                    if (max_jobs is not None
                            and stats.executed >= max_jobs):
                        return stats
        return stats
