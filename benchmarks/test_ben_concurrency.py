"""Experiment ben-concurrency — race/deadlock hunting is cheap.

The concurrency analyzer joins the pre-DSE gate and `repro lint`, and
the happens-before sanitizer replays every traced chaos run; both only
earn their keep if they cost a small fraction of the work they check.
This benchmark times the static analyzer over growing synthetic
workloads and the sanitizer over a traced chaos run, and pins the
sanitizer's byte-identical replay report.
"""

from __future__ import annotations

import time

from repro.chaos import ChaosConfig, generate_schedule
from repro.core.analysis import (
    ResourceSpec,
    TaskSpec,
    analyze_concurrency,
    check_task_graph_concurrency,
)
from repro.obs import observe, session
from repro.sanitize import sanitize_tracer
from repro.utils.tables import Table
from repro.workflow.graph import random_task_graph
from repro.workflow.recovery import ResilientServer
from repro.workflow.worker import Worker

SANITIZE_BUDGET_FRACTION = 0.25


def _time(callable_, repeat=3):
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def synthetic_tasks(width: int):
    """`width` racy fan-out groups plus resource claimants."""
    tasks = []
    resources = [ResourceSpec(f"r{i}", 2) for i in range(width)]
    for group in range(width):
        obj = f"acc{group}"
        tasks.append(TaskSpec(f"p{group}", outputs=[obj]))
        tasks.append(TaskSpec(f"ua{group}", updates=[obj]))
        tasks.append(TaskSpec(f"ub{group}", updates=[obj],
                              acquires=[(f"r{group}", 2)]))
        tasks.append(TaskSpec(f"c{group}", inputs=[obj],
                              acquires=[(f"r{group}", 2)]))
    return tasks, resources


def chaos_run(graph_seed: int, fault_seed: int):
    graph = random_task_graph(graph_seed, num_tasks=24)
    pool = [Worker(f"w{i}", node_name=f"n{i}", cpus=2)
            for i in range(3)]
    schedule = generate_schedule(
        graph, [w.name for w in pool], fault_seed,
        ChaosConfig(crashes=1, link_faults=0, reconfig_faults=1,
                    stragglers=1, task_faults=1),
    )
    obs = session(deterministic=True)
    with observe(obs):
        ResilientServer(pool).run(graph, chaos=schedule)
    return obs.tracer


def test_ben_concurrency_static_scales(benchmark):
    """Static analyzer stays near-linear across workload widths."""
    table = Table(
        "ben-concurrency: static analyzer cost vs workload size",
        ["tasks", "findings", "seconds"],
    )
    per_task = []
    for width in (8, 32, 128):
        tasks, resources = synthetic_tasks(width)
        seconds, diags = _time(
            lambda t=tasks, r=resources: analyze_concurrency(t, r)
        )
        table.add_row(str(len(tasks)), str(len(diags)),
                      f"{seconds:.4f}")
        per_task.append(seconds / len(tasks))
        # each group ships one WW race, one RW race, one DL003
        assert len(diags) >= 3 * width
    table.show()
    tasks, resources = synthetic_tasks(32)
    benchmark(lambda: analyze_concurrency(tasks, resources))
    # near-linear: cost per task must not explode with width
    assert per_task[-1] < 20 * per_task[0] + 1e-3, per_task


def test_ben_concurrency_sanitizer_overhead(benchmark):
    """Sanitize pass < 25% of the chaos run it audits; replay-stable."""
    run_seconds, tracer = _time(lambda: chaos_run(5, 7), repeat=1)
    sanitize_seconds, findings = _time(
        lambda: sanitize_tracer(tracer)
    )
    benchmark(lambda: sanitize_tracer(tracer))

    table = Table(
        "ben-concurrency: sanitizer cost vs chaos run (24 tasks)",
        ["phase", "seconds", "fraction"],
    )
    table.add_row("chaos run", f"{run_seconds:.4f}", "1.00")
    table.add_row(
        "hb sanitize", f"{sanitize_seconds:.4f}",
        f"{sanitize_seconds / run_seconds:.3f}",
    )
    table.show()

    assert len(findings) == 0, findings.render_text()
    assert sanitize_seconds < SANITIZE_BUDGET_FRACTION * run_seconds, (
        f"sanitize took {sanitize_seconds:.4f}s, more than "
        f"{SANITIZE_BUDGET_FRACTION:.0%} of the {run_seconds:.4f}s run"
    )

    # byte-identical report across a full re-run of the same seeds
    replay = sanitize_tracer(chaos_run(5, 7))
    assert findings.to_json(indent=2) == replay.to_json(indent=2)

    # and the static layer agrees seeded graphs are hazard-free
    static = check_task_graph_concurrency(random_task_graph(5, num_tasks=24))
    assert len(static) == 0, static.render_text()
