"""Experiment ben-durability — what crash-safety costs, what it saves.

The durability layer must be cheap enough to leave on (a write-ahead
journal in the execution path) and snapshots must actually buy O(tail)
resume. Two claims, each pinned with a hard bound:

* **journaling overhead** — running the ben-resilience combined-chaos
  workload with a journal attached costs < 10 % wall time over the
  identical un-journaled run (best-of-N to shed scheduler noise).
  Tasks carry real compute payloads (hashing the data volumes the
  pipeline models) — the denominator is a run doing actual work, as
  in production, not the bare discrete-event simulation. The hard
  bound is pinned on ``fsync="never"`` — every record is still
  written and flushed before execution proceeds, which is exactly the
  process-crash model the crash-everywhere resume matrix proves; the
  fsync-bearing modes (``snapshot``, ``always``) buy OS-crash
  durability with latency that depends on the host's disk, so they
  are reported and sanity-bounded, not held to the 10 % budget;
* **snapshot leverage** — resuming from the newest snapshot folds
  < 20 % of the journal records a full replay would, on a journal
  with the default snapshot cadence scaled to the workload.
"""

from __future__ import annotations

import gc
import hashlib
import time

from repro.chaos.schedule import ChaosConfig, generate_schedule
from repro.utils.tables import Table
from repro.workflow.journal import RunJournal, replay_journal
from repro.workflow.recovery import ResilientServer

from benchmarks.test_benefits_resilience import pipeline_graph, pool

CONFIG = ChaosConfig(crashes=2, link_faults=2, reconfig_faults=1,
                     stragglers=1, task_faults=2)

#: Bytes each task payload hashes — a stand-in for the per-member
#: processing the pipeline models (its data objects are 5-20 MB).
_PAYLOAD_BYTES = 14_000_000
_PAYLOAD_BUFFER = b"\xa5" * _PAYLOAD_BYTES


def _compute_payload() -> str:
    return hashlib.sha256(_PAYLOAD_BUFFER).hexdigest()


def run_workload(journal=None, payloads=False):
    """One combined-chaos run of the ben-resilience pipeline."""
    workers = pool()
    graph = pipeline_graph()
    if payloads:
        for task in graph.tasks.values():
            task.payload = _compute_payload
    schedule = generate_schedule(
        graph, [w.name for w in workers], seed=7, config=CONFIG,
    )
    return ResilientServer(workers).run(
        graph, chaos=schedule, journal=journal,
    )


def best_of(repeats, action):
    """Minimum wall time of ``repeats`` runs of ``action``.

    Collects garbage before every rep so a GC pause triggered by the
    previous variant's garbage never lands inside this measurement.
    """
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        action()
        best = min(best, time.perf_counter() - start)
    return best


def test_journaling_overhead_under_10_percent(tmp_path, benchmark):
    repeats = 9

    def plain():
        run_workload(payloads=True)

    def journaled(fsync):
        directory = tmp_path / f"run-{time.monotonic_ns()}"
        with RunJournal(directory, snapshot_every=100,
                        fsync=fsync) as journal:
            run_workload(journal=journal, payloads=True)

    # warm imports, caches and the journal write path out of the
    # measurement
    plain()
    journaled("never")

    base = best_of(repeats, plain)
    overheads = {}
    table = Table(
        "ben-durability: journal cost on the combined-chaos workload",
        ["variant", f"best-of-{repeats} s", "overhead"],
    )
    table.add_row("no journal", f"{base:.4f}", "-")
    for fsync in ("never", "snapshot", "always"):
        durable = best_of(repeats, lambda: journaled(fsync))
        overheads[fsync] = durable / base - 1.0
        table.add_row(f"journal fsync={fsync}", f"{durable:.4f}",
                      f"{overheads[fsync]:+.1%}")
    table.show()

    assert overheads["never"] < 0.10, (
        f"journaling costs {overheads['never']:.1%} wall time "
        f"(budget: 10%)"
    )
    # the fsync-bearing modes pay host-dependent disk latency on a
    # handful of syncs (header, snapshots, finish /
    # every record) — keep them sane, not to the 10% budget
    assert overheads["snapshot"] < 1.0
    assert overheads["always"] < 3.0
    benchmark(lambda: journaled("never"))


def test_snapshot_resume_replays_under_20_percent(tmp_path, benchmark):
    directory = tmp_path / "run"
    trace, _stats = None, None
    with RunJournal(directory, snapshot_every=15) as journal:
        trace, _stats = run_workload(journal=journal)

    state, info = replay_journal(directory, use_snapshots=True)
    full, full_info = replay_journal(directory, use_snapshots=False)
    fraction = info.records_replayed / info.records_total

    table = Table(
        "ben-durability: snapshot leverage at resume",
        ["metric", "value"],
    )
    table.add_row("journal records", info.records_total)
    table.add_row("snapshot covers seq", info.snapshot_seq)
    table.add_row("records folded at resume", info.records_replayed)
    table.add_row("fraction of full replay", f"{fraction:.1%}")
    table.show()

    assert state.finished and state.digest == trace.digest()
    assert state == full
    assert full_info.records_replayed == info.records_total
    assert fraction < 0.20, (
        f"snapshot resume folded {fraction:.1%} of the journal "
        f"(budget: 20%)"
    )
    benchmark(lambda: replay_journal(directory, use_snapshots=True))
