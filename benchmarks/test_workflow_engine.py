"""Experiment ben-workflow — the HyperLoom-style engine (paper §III-A).

"The envisioned platform aims to improve resource utilization and
reduces the overall workflow processing time." Scheduler-policy
comparison over three DAG families (wide fan-out, deep chains with
decoys, the use-case pipeline shape), reporting makespan, utilization
and data movement; plus strong-scaling of the worker pool.
"""

from __future__ import annotations

from repro.chaos import ChaosSchedule, WorkerCrash
from repro.utils.rng import deterministic_rng
from repro.utils.tables import Table
from repro.workflow.graph import DataObject, TaskGraph, WorkflowTask
from repro.workflow.recovery import ResilientServer
from repro.workflow.scheduler import make_policy
from repro.workflow.worker import Worker


def wide_graph(width=24) -> TaskGraph:
    graph = TaskGraph("wide")
    graph.add_object(DataObject("in", size_bytes=10_000))
    rng = deterministic_rng("wide")
    for index in range(width):
        graph.add_task(WorkflowTask(
            f"map{index}", inputs=["in"], outputs=[f"m{index}"],
            duration_s=float(rng.uniform(0.2, 1.5)),
        ))
    graph.add_task(WorkflowTask(
        "reduce", inputs=[f"m{index}" for index in range(width)],
        outputs=["out"], duration_s=0.5,
    ))
    return graph


def adversarial_graph() -> TaskGraph:
    """Short decoys listed first; a long chain carries the critical
    path — FIFO starts the decoys, b-level starts the chain."""
    graph = TaskGraph("adversarial")
    graph.add_object(DataObject("in", size_bytes=10_000))
    for index in range(8):
        graph.add_task(WorkflowTask(
            f"decoy{index}", inputs=["in"], outputs=[f"d{index}"],
            duration_s=1.0,
        ))
    previous = "in"
    for index in range(5):
        graph.add_task(WorkflowTask(
            f"chain{index}", inputs=[previous],
            outputs=[f"c{index}"], duration_s=1.6,
        ))
        previous = f"c{index}"
    return graph


def usecase_graph() -> TaskGraph:
    """The energy pipeline shape: ensemble fan-out, downscale,
    per-member model, reduce, market step."""
    graph = TaskGraph("usecase")
    graph.add_object(DataObject("ensemble", size_bytes=5_000_000))
    members = 8
    for member in range(members):
        graph.add_task(WorkflowTask(
            f"downscale{member}", inputs=["ensemble"],
            outputs=[f"fine{member}"], duration_s=0.8,
        ))
        graph.set_object_size(f"fine{member}", 20_000_000)
        graph.add_task(WorkflowTask(
            f"power{member}", inputs=[f"fine{member}"],
            outputs=[f"mw{member}"], duration_s=0.3,
        ))
        graph.set_object_size(f"mw{member}", 1_000)
    graph.add_task(WorkflowTask(
        "aggregate", inputs=[f"mw{m}" for m in range(members)],
        outputs=["schedule"], duration_s=0.2,
    ))
    graph.add_task(WorkflowTask(
        "market", inputs=["schedule"], outputs=["bid"],
        duration_s=0.1,
    ))
    return graph


GRAPHS = {
    "wide-24": wide_graph,
    "adversarial": adversarial_graph,
    "usecase-energy": usecase_graph,
}


def utilization_pct(trace, slots: int) -> float:
    """Busy share of ``slots`` worker slots over the makespan."""
    busy = sum(record.duration for record in trace.records)
    return busy / (trace.makespan * slots) * 100


def pool(count=4, cpus=2):
    return [
        Worker(f"w{index}", node_name=f"n{index}", cpus=cpus)
        for index in range(count)
    ]


def test_workflow_policy_comparison(benchmark):
    table = Table(
        "ben-workflow: scheduling policy x DAG family "
        "(4 workers x 2 slots)",
        ["graph", "policy", "makespan s", "utilization %",
         "bytes moved MB", "avg wait s"],
    )
    makespans = {}
    for graph_name, builder in GRAPHS.items():
        for policy_name in ("fifo", "b-level", "locality"):
            trace, _ = ResilientServer(
                pool(), policy=make_policy(policy_name)
            ).run(builder())
            makespans[(graph_name, policy_name)] = trace.makespan
            table.add_row(
                graph_name,
                policy_name,
                trace.makespan,
                utilization_pct(trace, 8),
                trace.bytes_moved / 1e6,
                sum(r.start - r.ready_at for r in trace.records)
                / len(trace.records),
            )
    table.show()

    # b-level at least matches FIFO everywhere and wins on the
    # adversarial family
    for graph_name in GRAPHS:
        assert makespans[(graph_name, "b-level")] <= \
            makespans[(graph_name, "fifo")] + 1e-9, graph_name
    assert makespans[("adversarial", "b-level")] < \
        makespans[("adversarial", "fifo")]

    server = ResilientServer(pool(), policy=make_policy("b-level"))
    benchmark(lambda: server.run(adversarial_graph()))


def test_workflow_fault_tolerance(benchmark):
    """§IV migration claim: the engine survives worker crashes with
    bounded makespan inflation via lineage re-execution."""
    graph_builder = usecase_graph

    table = Table(
        "ben-workflow: crash recovery on the use-case pipeline "
        "(4 workers)",
        ["scenario", "makespan s", "requeued", "relineaged",
         "refetched"],
    )
    clean_trace, clean_stats = ResilientServer(pool()).run(
        graph_builder()
    )
    table.add_row("no failure", clean_trace.makespan, 0, 0, 0)
    results = {}
    for label, crashes in (
        ("1 crash @0.5s", [WorkerCrash("w1", 0.5)]),
        ("2 crashes", [WorkerCrash("w1", 0.4),
                       WorkerCrash("w2", 0.9)]),
    ):
        trace, stats = ResilientServer(pool()).run(
            graph_builder(), chaos=ChaosSchedule(0, crashes)
        )
        results[label] = (trace, stats)
        table.add_row(
            label, trace.makespan, stats.tasks_requeued,
            stats.tasks_relineaged, stats.inputs_refetched,
        )
    table.show()

    graph = graph_builder()
    for label, (trace, stats) in results.items():
        # every task still completed
        assert {r.task for r in trace.records} >= set(graph.tasks)
        # bounded degradation: better than a full serial re-run
        assert trace.makespan < 2 * graph.total_work(), label
        assert trace.makespan >= clean_trace.makespan - 1e-9

    benchmark(lambda: ResilientServer(pool()).run(
        graph_builder(),
        chaos=ChaosSchedule(0, [WorkerCrash("w1", 0.5)]),
    ))


def test_workflow_strong_scaling(benchmark):
    table = Table(
        "ben-workflow: strong scaling of the wide-24 graph "
        "(b-level policy)",
        ["workers", "makespan s", "speedup", "utilization %"],
    )
    base = None
    results = {}
    for workers in (1, 2, 4, 8):
        trace, _ = ResilientServer(
            pool(count=workers, cpus=1),
            policy=make_policy("b-level"),
        ).run(wide_graph())
        if base is None:
            base = trace.makespan
        results[workers] = trace.makespan
        table.add_row(
            workers,
            trace.makespan,
            base / trace.makespan,
            utilization_pct(trace, workers),
        )
    table.show()

    # near-linear until the reduce barrier limits it
    assert results[4] < 0.35 * results[1]
    assert results[8] < results[4]
    # bounded below by the critical path
    graph = wide_graph()
    assert results[8] >= max(graph.b_levels().values()) - 1e-9

    server = ResilientServer(pool(count=8, cpus=1))
    benchmark(lambda: server.run(wide_graph()))
