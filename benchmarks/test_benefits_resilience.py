"""Experiment ben-resilience — fault injection on benchmark workflows.

Paper §IV claims the runtime "allows runtime migration of both data
and computations" and can adapt when parts of the platform degrade.
This experiment drives the use-case pipeline through every individual
fault class of the chaos layer — worker crash + restart, link
degradation, link partition, vFPGA reconfiguration failure, straggler,
transient task fault — and reports makespan inflation and the recovery
work (retries, backoff, lineage) each one costs. A final row combines
all classes under a seeded schedule.
"""

from __future__ import annotations

from repro.chaos.faults import (
    ANY_LINK,
    LinkFault,
    ReconfigFault,
    StragglerFault,
    TaskFault,
    WorkerCrash,
)
from repro.chaos.schedule import ChaosConfig, ChaosSchedule, generate_schedule
from repro.utils.tables import Table
from repro.workflow.graph import DataObject, TaskGraph, WorkflowTask
from repro.workflow.recovery import ResilientServer
from repro.workflow.worker import Worker


def pipeline_graph(members=8) -> TaskGraph:
    """The energy use-case shape: fan-out, per-member chain, reduce."""
    graph = TaskGraph("pipeline")
    graph.add_object(DataObject(
        "ensemble", size_bytes=5_000_000, locality="w0",
    ))
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
    return graph


def pool(count=4, cpus=2):
    return [
        Worker(f"w{index}", node_name=f"n{index}", cpus=cpus)
        for index in range(count)
    ]


SCENARIOS = [
    ("worker crash+restart", [
        WorkerCrash("w1", at_time=0.5, restart_after=0.6),
    ]),
    ("link degradation 10x", [
        LinkFault(ANY_LINK, ANY_LINK, at_time=0.2, duration_s=1.0,
                  bandwidth_factor=0.1),
    ]),
    ("link partition", [
        # severed from t=0: the initial fan-out staging must back off
        LinkFault(ANY_LINK, ANY_LINK, at_time=0.0, duration_s=0.8,
                  partition=True),
    ]),
    ("vFPGA reconfig failure", [
        ReconfigFault("w2", at_time=0.5, repair_s=0.7),
    ]),
    ("straggler 4x", [
        StragglerFault("w0", at_time=0.3, duration_s=1.5,
                       slowdown=4.0),
    ]),
    ("transient task faults", [
        TaskFault("downscale0", failures=2),
        TaskFault("aggregate", failures=1),
    ]),
]


def test_resilience_per_fault_class(benchmark):
    graph_tasks = set(pipeline_graph().tasks)
    table = Table(
        "ben-resilience: fault classes on the use-case pipeline "
        "(4 workers x 2 slots)",
        ["scenario", "makespan s", "inflation", "requeued",
         "retries", "backoff s", "relineaged", "refetched"],
    )
    clean, _ = ResilientServer(pool()).run(pipeline_graph())
    table.add_row("no faults", clean.makespan, 1.0, 0, 0, 0.0, 0, 0)

    results = {}
    for label, faults in SCENARIOS:
        schedule = ChaosSchedule(seed=0, faults=list(faults))
        trace, stats = ResilientServer(pool()).run(
            pipeline_graph(), chaos=schedule,
        )
        results[label] = (trace, stats)
        table.add_row(
            label, trace.makespan, trace.makespan / clean.makespan,
            stats.tasks_requeued, stats.retries,
            stats.backoff_seconds, stats.tasks_relineaged,
            stats.inputs_refetched,
        )
    table.show()

    for label, (trace, stats) in results.items():
        # the workflow completed under every individual fault class
        assert {r.task for r in trace.records} == graph_tasks, label
        # faults never make the run faster, and degradation stays
        # bounded far below a serial re-run of all work
        assert trace.makespan >= clean.makespan - 1e-9, label
        assert trace.makespan < 2 * pipeline_graph().total_work(), label
        # every injected fault is visible in the trace
        assert trace.faults, label

    # the disruptive classes show their recovery machinery in the trace
    for label in ("worker crash+restart", "link partition",
                  "transient task faults"):
        trace, stats = results[label]
        actions = trace.recoveries_by_action()
        assert stats.retries >= 1, label
        assert stats.backoff_seconds > 0.0, label
        assert actions.get("backoff", 0) >= 1, label
        assert actions.get("retry", 0) >= 1, label

    crash_trace, crash_stats = results["worker crash+restart"]
    assert crash_stats.restarts == 1
    assert crash_trace.recoveries_by_action().get("worker-restart") == 1

    reconf_trace, reconf_stats = results["vFPGA reconfig failure"]
    assert reconf_stats.objects_lost == 0  # shell keeps the store
    assert reconf_trace.recoveries_by_action().get("worker-readmit") == 1

    benchmark(lambda: ResilientServer(pool()).run(
        pipeline_graph(),
        chaos=ChaosSchedule(seed=0, faults=[
            WorkerCrash("w1", at_time=0.5, restart_after=0.6),
        ]),
    ))


def test_resilience_combined_seeded_chaos(benchmark):
    """All fault classes at once from a seeded generator: the run
    still completes and replays identically."""
    config = ChaosConfig(crashes=2, link_faults=2, reconfig_faults=1,
                         stragglers=1, task_faults=2)

    def run_once():
        workers = pool()
        graph = pipeline_graph()
        schedule = generate_schedule(
            graph, [w.name for w in workers], seed=7, config=config,
        )
        return ResilientServer(workers).run(graph, chaos=schedule)

    trace, stats = run_once()
    table = Table(
        "ben-resilience: combined seeded chaos (fault-seed 7)",
        ["metric", "value"],
    )
    table.add_row("tasks completed",
                  len({r.task for r in trace.records}))
    table.add_row("makespan s", trace.makespan)
    for kind, count in sorted(trace.faults_by_kind().items()):
        table.add_row(f"fault: {kind}", count)
    table.add_row("retries", stats.retries)
    table.add_row("trace digest", trace.digest())
    table.show()

    assert {r.task for r in trace.records} == set(pipeline_graph().tasks)
    replay, _ = run_once()
    assert replay.to_json() == trace.to_json()

    benchmark(lambda: run_once())
