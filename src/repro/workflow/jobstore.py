"""Durable SQLite-backed job store for the multi-tenant service.

One store holds the jobs of *many* independent sessions: clients
(:mod:`repro.workflow.client`) bulk-submit tagged jobs, launchers
(:mod:`repro.workflow.launcher`) lease batches of ready work, and
every mutation goes through a per-job state machine so illegal jumps
are rejected instead of silently corrupting the queue::

    staged ----> ready ----> running ----> done
      |            |        |       \\-----> failed
      |            |        +--> ready   (lease expired / retry)
      +--> cancelled <------+            (cancel honored by launcher)

The store is a single SQLite file in WAL mode, so independent
processes on one host share it concurrently and readers never block.
Every per-job mutation is one autocommitted, guarded statement: a
lease is one ``UPDATE … RETURNING`` that claims the oldest ready jobs
(two launchers can never be assigned the same job), and a completion
is one ``UPDATE`` whose ``WHERE`` holds the lease and the legal source
states, so each finished job is durable when its own commit returns.
Expiry is one statement too; multi-statement writes (submission
batches, cancellation, gc) serialize on ``BEGIN IMMEDIATE``
transactions. Only one index is keyed by state, so a state change
rewrites one index entry besides the row: ready-queue scans and
per-tag counts run on covering indexes, per-owner listings on
``(owner, id)``, and per-owner counts read each of the owner's rows
(~35 ms at 100k rows against a 250 ms floor). The store stays
responsive at 100k+ job records (pinned by
``benchmarks/test_ben_service.py``).

Leases are heartbeat-based: a launcher's claim on a batch carries an
expiry; :meth:`JobStore.heartbeat` extends it while work progresses,
and :meth:`JobStore.expire_leases` returns jobs whose launcher went
silent to the ready queue (or to ``failed`` once ``max_attempts`` is
exhausted, or to ``cancelled`` when a cancel request was pending), so
a killed launcher loses *time*, never *jobs*.

Stable error codes (:class:`~repro.errors.JobStoreError`): ``JOB001``
unknown job, ``JOB002`` illegal state transition, ``JOB003`` stale
lease (the job was re-leased from under a silent launcher), ``JOB004``
schema version skew, ``JOB005`` an SQLite library older than 3.35
(``UPDATE … RETURNING`` is the claim statement).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sqlite3
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import JobStoreError
from repro.obs import current_metrics

#: Schema version stamped into the ``meta`` table; a store written by
#: a different version is rejected with ``JOB004``.
SCHEMA_VERSION = 1

#: Every state a job can be in.
JOB_STATES = ("staged", "ready", "running", "done", "failed",
              "cancelled")

#: Terminal states: no transition leaves them.
TERMINAL_STATES = ("done", "failed", "cancelled")

#: The legal state machine; anything else is a JOB002 error.
LEGAL_TRANSITIONS = frozenset({
    ("staged", "ready"),       # release
    ("ready", "running"),      # lease
    ("running", "done"),       # complete
    ("running", "failed"),     # fail (attempts exhausted)
    ("running", "ready"),      # lease expired / retryable failure
    ("staged", "cancelled"),
    ("ready", "cancelled"),
    ("running", "cancelled"),  # launcher honors a cancel request
})

#: The oldest SQLite whose ``UPDATE … RETURNING`` the claim and the
#: heartbeat are written in.
_SQLITE_FLOOR = (3, 35)

#: Lease-latency histogram buckets (seconds): sub-ms to 1 s.
LEASE_LATENCY_BUCKETS = (
    1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0,
)


def default_jobstore_path() -> Path:
    """``$XDG_STATE_HOME/repro-service/jobs.db`` (XDG aware)."""
    base = os.environ.get("XDG_STATE_HOME")
    root = Path(base) if base else Path.home() / ".local" / "state"
    return root / "repro-service" / "jobs.db"


def jobstore_error(code: str, message: str) -> JobStoreError:
    """A :class:`JobStoreError` leading with its stable code."""
    exc = JobStoreError(f"{code}: {message}")
    exc.code = code
    return exc


def canonical_spec(spec: Dict) -> str:
    """Deterministic JSON used for storage and idempotency keys."""
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def _text_key(owner: str, name: str, kind: str, spec_text: str) -> str:
    """Content-derived idempotency key of one submission: the same
    owner, name, kind and spec are the same job, so re-submitting is a
    no-op instead of a duplicate execution."""
    body = "\x1f".join((owner, name, kind, spec_text))
    return hashlib.sha256(body.encode()).hexdigest()[:24]


@dataclass
class JobSpec:
    """One job as a client submits it."""

    name: str
    kind: str = "noop"
    spec: Dict = field(default_factory=dict)
    key: Optional[str] = None  # explicit idempotency key (optional)
    max_attempts: int = 3


@dataclass
class JobRecord:
    """One job as the store holds it (a row of the ``jobs`` table)."""

    id: int
    key: str
    name: str
    owner: str
    kind: str
    spec: Dict
    state: str
    attempts: int
    max_attempts: int
    lease_id: Optional[str]
    lease_expiry: Optional[float]
    launcher: Optional[str]
    cancel_requested: bool
    result: Optional[Dict]
    run_id: Optional[str]
    created: float
    updated: float
    tags: Tuple[str, ...] = ()


@dataclass
class SubmitResult:
    """Outcome of one (batched) submission."""

    inserted: List[int]    # newly created job ids
    duplicates: List[int]  # ids of already-present identical jobs

    @property
    def ids(self) -> List[int]:
        """Every id the submission maps to, new or pre-existing."""
        return self.inserted + self.duplicates


@dataclass
class Lease:
    """An atomic claim on a batch of ready jobs."""

    lease_id: str
    launcher: str
    expiry: float
    jobs: List[JobRecord]

    def __len__(self) -> int:
        return len(self.jobs)


_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
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
CREATE INDEX IF NOT EXISTS idx_jobs_state ON jobs(state, id);
DROP INDEX IF EXISTS idx_jobs_owner;
DROP INDEX IF EXISTS idx_jobs_lease;
CREATE INDEX IF NOT EXISTS idx_jobs_owner_id ON jobs(owner, id);
CREATE TABLE IF NOT EXISTS job_tags (
    job_id INTEGER NOT NULL REFERENCES jobs(id) ON DELETE CASCADE,
    tag    TEXT NOT NULL,
    PRIMARY KEY (job_id, tag)
) WITHOUT ROWID;
CREATE INDEX IF NOT EXISTS idx_tags_tag ON job_tags(tag, job_id);
"""

_JOB_COLUMNS = (
    "id, key, name, owner, kind, spec, state, attempts, max_attempts, "
    "lease_id, lease_expiry, launcher, cancel_requested, result, "
    "run_id, created, updated"
)


class JobStore:
    """One connection to the shared job database.

    Open one store per session (thread or process); independent
    sessions against the same path see each other's writes — that is
    the multi-tenant contract. ``clock`` is injectable so lease-expiry
    behaviour is testable without sleeping.
    """

    def __init__(self, path=None, clock: Callable[[], float] = None,
                 timeout_s: float = 30.0):
        """Open (creating if needed) the store at ``path``."""
        if sqlite3.sqlite_version_info < _SQLITE_FLOOR:
            raise jobstore_error(
                "JOB005",
                f"SQLite ≥ 3.35 required for UPDATE … RETURNING; "
                f"this Python links SQLite {sqlite3.sqlite_version}",
            )
        self.path = Path(path) if path else default_jobstore_path()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.clock = clock or time.time
        self._conn = sqlite3.connect(str(self.path),
                                     timeout=timeout_s)
        self._conn.isolation_level = None  # explicit transactions
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA foreign_keys=ON")
        self._conn.execute(
            f"PRAGMA busy_timeout={int(timeout_s * 1000)}"
        )
        self._init_schema()

    def _init_schema(self) -> None:
        # executescript autocommits, so it runs outside _write()
        self._conn.executescript(_SCHEMA)
        with self._write():
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO meta(key, value) VALUES "
                    "('schema_version', ?)", (str(SCHEMA_VERSION),),
                )
            elif int(row[0]) != SCHEMA_VERSION:
                raise jobstore_error(
                    "JOB004",
                    f"store {self.path} is schema v{row[0]}, this "
                    f"build reads v{SCHEMA_VERSION}",
                )

    def close(self) -> None:
        """Release the underlying connection."""
        self._conn.close()

    def __enter__(self) -> "JobStore":
        """Context-manager support: close on exit."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Close the store when the block exits."""
        self.close()

    # -- transactions --------------------------------------------------

    def _write(self):
        """An immediate-mode write transaction (serializes writers)."""
        return _WriteTransaction(self._conn)

    # -- submission ----------------------------------------------------

    def submit(self, specs: Iterable[JobSpec], owner: str = "",
               tags: Sequence[str] = (), ready: bool = True,
               ) -> SubmitResult:
        """Batch-insert jobs; duplicate submissions are idempotent.

        Every job in the batch lands in one transaction (one fsync for
        the whole batch, the 10k-jobs/s path). A job whose idempotency
        key is already present is *not* re-inserted — its existing id
        is reported under ``duplicates`` and its state is untouched,
        so retrying a submission script never double-runs work.
        ``ready=False`` stages the jobs for a later :meth:`release`.
        """
        specs = list(specs)
        now = self.clock()
        state = "ready" if ready else "staged"
        rows = []
        keys = []
        for item in specs:
            text = canonical_spec(item.spec)
            key = item.key or _text_key(owner, item.name, item.kind,
                                        text)
            keys.append(key)
            rows.append((
                key, item.name, owner, item.kind, text, state,
                max(1, item.max_attempts), now, now,
            ))
        inserted: List[int] = []
        duplicates: List[int] = []
        with self._write():
            before = {
                row[0]: row[1] for row in self._conn.execute(
                    f"SELECT key, id FROM jobs WHERE key IN "
                    f"({','.join('?' * len(keys))})", keys,
                )
            } if keys else {}
            self._conn.executemany(
                "INSERT OR IGNORE INTO jobs "
                "(key, name, owner, kind, spec, state, max_attempts, "
                " created, updated) VALUES (?,?,?,?,?,?,?,?,?)", rows,
            )
            after = {
                row[0]: row[1] for row in self._conn.execute(
                    f"SELECT key, id FROM jobs WHERE key IN "
                    f"({','.join('?' * len(keys))})", keys,
                )
            } if keys else {}
            for key in keys:
                if key in before:
                    duplicates.append(before[key])
                else:
                    inserted.append(after[key])
            if tags and inserted:
                self._conn.executemany(
                    "INSERT OR IGNORE INTO job_tags(job_id, tag) "
                    "VALUES (?,?)",
                    [(job_id, tag) for job_id in inserted
                     for tag in tags],
                )
        if inserted:
            current_metrics().counter(
                "service.jobs_submitted",
                "jobs accepted by the service job store",
            ).inc(len(inserted), owner=owner or "-")
        return SubmitResult(inserted=inserted, duplicates=duplicates)

    def release(self, job_ids: Iterable[int]) -> int:
        """Move staged jobs to the ready queue; returns the count."""
        ids = list(job_ids)
        if not ids:
            return 0
        return self._conn.execute(
            f"UPDATE jobs SET state='ready', updated=? "
            f"WHERE id IN ({','.join('?' * len(ids))}) "
            f"AND state='staged'", [self.clock(), *ids],
        ).rowcount

    # -- leasing -------------------------------------------------------

    def lease(self, launcher: str, limit: int,
              ttl_s: float = 30.0) -> Lease:
        """Atomically claim up to ``limit`` ready jobs.

        The claim is one statement that selects the oldest ready jobs
        and moves them to ``running``, so two launchers calling
        concurrently partition the queue — a job is never assigned
        twice. The lease expires ``ttl_s`` from now unless heartbeats
        extend it.
        """
        started = time.perf_counter()
        now = self.clock()
        lease_id = uuid.uuid4().hex[:12]
        rows = self._conn.execute(
            f"UPDATE jobs SET state='running', lease_id=?, "
            f"lease_expiry=?, launcher=?, attempts=attempts+1, "
            f"updated=? WHERE id IN (SELECT id FROM jobs "
            f"WHERE state='ready' AND cancel_requested=0 "
            f"ORDER BY id LIMIT ?) RETURNING {_JOB_COLUMNS}",
            (lease_id, now + ttl_s, launcher, now, limit),
        ).fetchall()
        jobs = self._records(sorted(rows))  # RETURNING is unordered
        metrics = current_metrics()
        if jobs:
            metrics.counter(
                "service.jobs_leased",
                "jobs handed to launchers under a lease",
            ).inc(len(jobs), launcher=launcher)
        metrics.histogram(
            "service.lease_seconds",
            "wall time of one lease claim",
            buckets=LEASE_LATENCY_BUCKETS,
        ).observe(time.perf_counter() - started, launcher=launcher)
        return Lease(lease_id=lease_id, launcher=launcher,
                     expiry=now + ttl_s, jobs=jobs)

    def heartbeat(self, lease_id: str,
                  ttl_s: float = 30.0) -> Tuple[int, List[int]]:
        """Extend a live lease; returns ``(refreshed, cancel_ids)``.

        ``refreshed`` is the number of still-running jobs whose expiry
        moved forward; ``cancel_ids`` are jobs in the lease for which
        a client requested cancellation — the launcher should skip or
        stop them and :meth:`cancel_leased` each one.
        """
        now = self.clock()
        rows = self._conn.execute(
            "UPDATE jobs SET lease_expiry=?, updated=? "
            "WHERE lease_id=? AND state='running' "
            "RETURNING id, cancel_requested",
            (now + ttl_s, now, lease_id),
        ).fetchall()
        return len(rows), sorted(job_id for job_id, cancel in rows
                                 if cancel)

    def expire_leases(self) -> Tuple[List[int], List[int]]:
        """Return silent launchers' jobs to the queue.

        Running jobs whose lease expired go back to ``ready`` (the
        next lease re-runs them) unless their attempts are exhausted,
        in which case they land in ``failed`` with a lease-expiry
        result. A job that would be requeued but whose cancellation
        was requested while it ran lands in ``cancelled`` instead:
        requeued it would stay ``ready`` for ever, since :meth:`lease`
        never claims a job with a cancel request. Returns
        ``(requeued_ids, failed_ids)``, each in id order.
        """
        now = self.clock()
        # one statement; every SET expression reads the row as it was
        rows = self._conn.execute(
            "UPDATE jobs SET state=CASE WHEN attempts >= max_attempts "
            "THEN 'failed' WHEN cancel_requested THEN 'cancelled' "
            "ELSE 'ready' END, result=CASE WHEN attempts >= "
            "max_attempts THEN ? WHEN cancel_requested THEN ? "
            "ELSE result END, launcher=CASE WHEN attempts >= "
            "max_attempts OR cancel_requested THEN launcher END, "
            "lease_id=NULL, lease_expiry=NULL, updated=? "
            "WHERE state='running' AND lease_expiry < ? "
            "RETURNING id, state",
            (json.dumps({"error": "lease expired; attempts exhausted"}),
             json.dumps({"error": "cancelled"}), now, now),
        ).fetchall()
        ended = {"ready": [], "failed": [], "cancelled": []}
        for job_id, state in sorted(rows):
            ended[state].append(job_id)
        requeued, exhausted, cancelled = ended.values()
        if cancelled:
            current_metrics().counter(
                "service.jobs_cancelled", "jobs cancelled by clients",
            ).inc(len(cancelled))
        if requeued:
            current_metrics().counter(
                "service.leases_expired",
                "jobs reclaimed from silent launchers",
            ).inc(len(requeued))
        return requeued, exhausted

    # -- completion ----------------------------------------------------

    def _transition(self, job_id: int, lease_id: Optional[str],
                    target: str, result: Optional[Dict],
                    retry: bool = False) -> str:
        """Guarded single-job transition; returns the state reached.

        One autocommitted ``UPDATE`` matches the job only under
        ``lease_id`` (any lease when ``None``) and in a state
        ``target`` may legally be reached from; with ``retry`` a job
        with attempts left goes to ``ready`` instead. When it matches
        nothing, one read names the failure: ``JOB001``, then
        ``JOB003``, then ``JOB002``.
        """
        params = [self.clock(),
                  json.dumps(result, sort_keys=True) if result else None,
                  job_id]
        if lease_id is not None:
            params.append(lease_id)
        sql = _transition_sql(target, retry, lease_id is not None)
        while True:
            # run to completion: the statement's commit is its reset
            reached = self._conn.execute(sql, params).fetchall()
            if reached:
                return reached[0][0]
            row = self._conn.execute(
                "SELECT state, lease_id, attempts < max_attempts "
                "FROM jobs WHERE id=?", (job_id,),
            ).fetchone()
            if row is None:
                raise jobstore_error("JOB001", f"unknown job {job_id}")
            state, held, attempts_left = row
            if lease_id is not None and held != lease_id:
                raise jobstore_error(
                    "JOB003",
                    f"job {job_id}: lease {lease_id!r} is stale (the "
                    f"store reclaimed the job; current lease {held!r}); "
                    f"discard this result",
                )
            goes = "ready" if retry and attempts_left else target
            if (state, goes) not in LEGAL_TRANSITIONS:
                raise jobstore_error(
                    "JOB002",
                    f"job {job_id}: illegal transition "
                    f"{state!r} -> {goes!r}",
                )
            # another session moved the job between the two statements

    def complete(self, job_id: int, lease_id: str,
                 result: Optional[Dict] = None) -> None:
        """Mark a leased job done, guarded against stale leases.

        A launcher that lost its lease (expired while it was stuck,
        the job re-leased elsewhere) gets ``JOB003`` instead of
        overwriting the rightful owner's result — the guarantee behind
        "zero double-completions".
        """
        self._transition(job_id, lease_id, "done", result)
        current_metrics().counter(
            "service.jobs_completed", "jobs finished successfully",
        ).inc()

    def fail(self, job_id: int, lease_id: str, error: str,
             retry: bool = True) -> str:
        """Record a job failure; returns the resulting state.

        With ``retry`` (default) the job goes back to ``ready`` while
        attempts remain; otherwise — or once attempts are exhausted —
        it lands in ``failed`` with the error recorded.
        """
        target = self._transition(job_id, lease_id, "failed",
                                  {"error": error}, retry=retry)
        current_metrics().counter(
            "service.jobs_failed", "job executions that failed",
        ).inc(final=str(target == "failed").lower())
        return target

    def bind_run(self, job_id: int, run_id: str) -> None:
        """Record the durable RunStore run backing a job's execution."""
        self._conn.execute(
            "UPDATE jobs SET run_id=?, updated=? WHERE id=?",
            (run_id, self.clock(), job_id),
        )

    # -- cancellation --------------------------------------------------

    def cancel(self, job_ids: Iterable[int] = (),
               owner: Optional[str] = None,
               tag: Optional[str] = None) -> Tuple[int, int]:
        """Cancel jobs by id, owner or tag.

        Staged and ready jobs are cancelled immediately; running jobs
        get ``cancel_requested`` set, which their launcher honors at
        the next heartbeat or batch boundary. Returns
        ``(cancelled_now, requested)``; naming no selector at all is a
        :class:`JobStoreError`.
        """
        ids = list(job_ids)
        clauses, params = [], []
        if ids:
            clauses.append(f"id IN ({','.join('?' * len(ids))})")
            params.extend(ids)
        if owner is not None:
            clauses.append("owner=?")
            params.append(owner)
        if tag is not None:
            clauses.append(
                "id IN (SELECT job_id FROM job_tags WHERE tag=?)"
            )
            params.append(tag)
        if not clauses:
            raise JobStoreError(
                "cancel needs job ids, an owner or a tag to select by"
            )
        where = " AND ".join(clauses)
        now = self.clock()
        with self._write():
            cursor = self._conn.execute(
                f"UPDATE jobs SET state='cancelled', lease_id=NULL, "
                f"lease_expiry=NULL, updated=? "
                f"WHERE ({where}) AND state IN ('staged','ready')",
                [now, *params],
            )
            cancelled = cursor.rowcount
            cursor = self._conn.execute(
                f"UPDATE jobs SET cancel_requested=1, updated=? "
                f"WHERE ({where}) AND state='running'",
                [now, *params],
            )
            requested = cursor.rowcount
        if cancelled:
            current_metrics().counter(
                "service.jobs_cancelled", "jobs cancelled by clients",
            ).inc(cancelled)
        return cancelled, requested

    def cancel_leased(self, job_id: int, lease_id: str) -> None:
        """Launcher-side acknowledgement of a cancel request."""
        self._transition(job_id, lease_id, "cancelled",
                         {"error": "cancelled"})

    # -- queries -------------------------------------------------------

    def _fetch_jobs(self, ids: Sequence[int]) -> List[JobRecord]:
        if not ids:
            return []
        return self._records(self._conn.execute(
            f"SELECT {_JOB_COLUMNS} FROM jobs "
            f"WHERE id IN ({','.join('?' * len(ids))}) ORDER BY id",
            list(ids),
        ).fetchall())

    def _records(self, rows: Sequence[tuple]) -> List[JobRecord]:
        """Records of ``rows`` (in their order), tags read in one pass."""
        if not rows:
            return []
        tags: Dict[int, List[str]] = {}
        for job_id, tag in self._conn.execute(
            f"SELECT job_id, tag FROM job_tags "
            f"WHERE job_id IN ({','.join('?' * len(rows))})",
            [row[0] for row in rows],
        ):
            tags.setdefault(job_id, []).append(tag)
        return [self._record(row, tags.get(row[0], []))
                for row in rows]

    @staticmethod
    def _record(row, tags: List[str]) -> JobRecord:
        return JobRecord(
            id=row[0], key=row[1], name=row[2], owner=row[3],
            kind=row[4], spec=json.loads(row[5]), state=row[6],
            attempts=row[7], max_attempts=row[8], lease_id=row[9],
            lease_expiry=row[10], launcher=row[11],
            cancel_requested=bool(row[12]),
            result=json.loads(row[13]) if row[13] else None,
            run_id=row[14], created=row[15], updated=row[16],
            tags=tuple(sorted(tags)),
        )

    def job(self, job_id: int) -> JobRecord:
        """One job by id; JOB001 when it does not exist."""
        jobs = self._fetch_jobs([job_id])
        if not jobs:
            raise jobstore_error("JOB001", f"unknown job {job_id}")
        return jobs[0]

    def list_jobs(self, state: Optional[str] = None,
                  owner: Optional[str] = None,
                  tag: Optional[str] = None,
                  limit: int = 100) -> List[JobRecord]:
        """Jobs matching the filters, oldest first, indexed access."""
        clauses, params = [], []
        if state is not None:
            clauses.append("state=?")
            params.append(state)
        if owner is not None:
            clauses.append("owner=?")
            params.append(owner)
        if tag is not None:
            clauses.append(
                "id IN (SELECT job_id FROM job_tags WHERE tag=?)"
            )
            params.append(tag)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        ids = [row[0] for row in self._conn.execute(
            f"SELECT id FROM jobs {where} ORDER BY id LIMIT ?",
            [*params, limit],
        )]
        return self._fetch_jobs(ids)

    def counts(self, owner: Optional[str] = None,
               tag: Optional[str] = None) -> Dict[str, int]:
        """Job count per state (every state present, possibly 0)."""
        clauses, params = [], []
        if owner is not None:
            clauses.append("owner=?")
            params.append(owner)
        if tag is not None:
            clauses.append(
                "id IN (SELECT job_id FROM job_tags WHERE tag=?)"
            )
            params.append(tag)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        out = {state: 0 for state in JOB_STATES}
        for state, count in self._conn.execute(
            f"SELECT state, COUNT(*) FROM jobs {where} "
            f"GROUP BY state", params,
        ):
            out[state] = count
        return out

    def drained(self) -> bool:
        """True when no job is staged, ready or running."""
        row = self._conn.execute(
            "SELECT COUNT(*) FROM jobs "
            "WHERE state IN ('staged','ready','running')"
        ).fetchone()
        return row[0] == 0

    # -- gc ------------------------------------------------------------

    def gc(self, live_run_ids: Optional[Iterable[str]] = None,
           ) -> Tuple[int, int]:
        """Prune finished rows and orphaned run references.

        Deletes jobs in terminal states (their results have been
        consumed; the journal in the run store is the durable record).
        When ``live_run_ids`` is given — the run ids still present in
        the run store — non-terminal jobs bound to a run that no
        longer exists are orphans (their durable state was
        garbage-collected from under them) and are deleted too.
        Returns ``(finished_removed, orphans_removed)``.
        """
        with self._write():
            cursor = self._conn.execute(
                "DELETE FROM jobs WHERE state IN "
                "('done','failed','cancelled')"
            )
            finished = cursor.rowcount
            orphans = 0
            if live_run_ids is not None:
                live = list(live_run_ids)
                if live:
                    cursor = self._conn.execute(
                        f"DELETE FROM jobs WHERE run_id IS NOT NULL "
                        f"AND run_id NOT IN "
                        f"({','.join('?' * len(live))})", live,
                    )
                else:
                    cursor = self._conn.execute(
                        "DELETE FROM jobs WHERE run_id IS NOT NULL"
                    )
                orphans = cursor.rowcount
            self._conn.execute(
                "DELETE FROM job_tags WHERE job_id NOT IN "
                "(SELECT id FROM jobs)"
            )
        return finished, orphans


@functools.lru_cache(maxsize=None)
def _transition_sql(target: str, retry: bool, leased: bool) -> str:
    """The guarded ``UPDATE`` of :meth:`JobStore._transition`."""
    def legal_from(state: str) -> str:
        sources = sorted(source for source, to in LEGAL_TRANSITIONS
                         if to == state)
        return f"state IN ({','.join(repr(s) for s in sources)})"

    goes, guard = f"'{target}'", legal_from(target)
    if retry:
        left = "attempts < max_attempts"
        goes = f"CASE WHEN {left} THEN 'ready' ELSE {goes} END"
        guard = (f"CASE WHEN {left} THEN {legal_from('ready')} "
                 f"ELSE {guard} END")
    return (
        f"UPDATE jobs SET state={goes}, lease_id=NULL, "
        f"lease_expiry=NULL, updated=?, result=? WHERE id=? "
        f"{'AND lease_id=? ' if leased else ''}AND {guard} "
        f"RETURNING state"
    )


class _WriteTransaction:
    """``BEGIN IMMEDIATE`` writer scope: commit or roll back."""

    def __init__(self, conn: sqlite3.Connection):
        self._conn = conn

    def __enter__(self) -> sqlite3.Connection:
        self._conn.execute("BEGIN IMMEDIATE")
        return self._conn

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self._conn.execute("COMMIT")
        else:
            self._conn.execute("ROLLBACK")
