"""Client API of the multi-tenant workflow service.

The user-facing half of the service split: a
:class:`ServiceClient` connects to the shared job database and lets
independent sessions — different shells, different users, different
machines sharing a filesystem — submit work in bulk, watch its state
and cancel it, without ever touching launcher internals. The full
narrative guide (with runnable examples) is ``docs/SERVICE.md``.

Quick start::

    from repro.workflow import JobSpec, ServiceClient

    client = ServiceClient("service/jobs.db")
    result = client.submit(
        [JobSpec(name=f"probe-{i}", kind="chaos",
                 spec={"graph_seed": i, "fault_seed": 1, "tasks": 9})
         for i in range(100)],
        owner="alice", tags=("nightly",),
    )
    print(client.counts(tag="nightly"))   # {'ready': 100, ...}
    # ... a `repro service launch` launcher drains the queue ...
    for job in client.jobs(state="done", tag="nightly"):
        print(job.name, job.result["digest"])

Everything the client does is one SQLite transaction against the
store, so it is safe to run while launchers are executing: submission
is batched (one fsync per call, not per job), queries run on covering
indexes, and cancellation of running jobs is a *request* the owning
launcher honors at its next heartbeat.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.workflow.jobstore import (
    JobRecord,
    JobSpec,
    JobStore,
    SubmitResult,
)


class ServiceClient:
    """Bulk submission, state queries and cancellation for one tenant.

    One client wraps one store connection; open one per session (it
    is cheap) rather than sharing across threads. ``default_owner``
    stamps submissions that do not name an owner themselves.
    """

    def __init__(self, db_path=None, default_owner: str = ""):
        """Connect to the job database at ``db_path``."""
        self.store = JobStore(db_path)
        self.default_owner = default_owner

    def close(self) -> None:
        """Release the store connection."""
        self.store.close()

    def __enter__(self) -> "ServiceClient":
        """Context-manager support: close on exit."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Close the client when the block exits."""
        self.close()

    # -- submission ----------------------------------------------------

    def submit(self, specs: Iterable[JobSpec],
               owner: Optional[str] = None,
               tags: Sequence[str] = (),
               ready: bool = True) -> SubmitResult:
        """Submit a batch of jobs; idempotent per content key.

        Returns the :class:`SubmitResult`; ``result.duplicates``
        holds the ids of jobs that were already in the store (same
        owner, name, kind and spec), which the store refused to
        duplicate.
        """
        return self.store.submit(
            specs,
            owner=self.default_owner if owner is None else owner,
            tags=tags, ready=ready,
        )

    def release(self, job_ids: Iterable[int]) -> int:
        """Promote staged jobs to the ready queue."""
        return self.store.release(job_ids)

    # -- queries -------------------------------------------------------

    def job(self, job_id: int) -> JobRecord:
        """One job with its tags, result and lease state."""
        return self.store.job(job_id)

    def jobs(self, state: Optional[str] = None,
             owner: Optional[str] = None,
             tag: Optional[str] = None,
             limit: int = 100) -> List[JobRecord]:
        """Jobs matching the filters (indexed; oldest first)."""
        return self.store.list_jobs(state=state, owner=owner,
                                    tag=tag, limit=limit)

    def counts(self, owner: Optional[str] = None,
               tag: Optional[str] = None) -> Dict[str, int]:
        """Job count per state for the filtered population."""
        return self.store.counts(owner=owner, tag=tag)

    def drained(self) -> bool:
        """True when nothing is left staged, ready or running."""
        return self.store.drained()

    def wait(self, timeout_s: float = 30.0,
             poll_s: float = 0.05) -> bool:
        """Block until the store drains; False on timeout."""
        deadline = time.monotonic() + timeout_s
        while not self.store.drained():
            if time.monotonic() >= deadline:
                return False
            time.sleep(poll_s)
        return True

    # -- cancellation --------------------------------------------------

    def cancel(self, job_ids: Iterable[int] = (),
               owner: Optional[str] = None,
               tag: Optional[str] = None) -> Tuple[int, int]:
        """Cancel by ids, owner or tag.

        Returns ``(cancelled_now, requested)``: queued jobs are gone
        immediately; running jobs are flagged and their launcher
        cancels them at its next heartbeat.
        """
        return self.store.cancel(job_ids, owner=owner, tag=tag)
