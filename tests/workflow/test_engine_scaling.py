"""The engine's cost per task must not grow with the graph.

Pinned as counts, not seconds: how often a fault-free b-level run asks
a worker whether a task fits (``Worker.can_run``) and reads a task's
dependency list (``TaskGraph.dependencies``), per task, at two graph
sizes. An engine that re-derives readiness or capacity per launch
shows up as counts that climb with the size (53 -> 1331 ``can_run``
and 15 -> 293 ``dependencies`` calls per task between 150 and 1000
tasks before the unmet-dependency counters and the ordered ready
queue); wall-clock time is the benchmark's business. The b-level
select reads the pool's free cpus in one pass and asks no worker
whether a task fits, so the only ``can_run`` left is the check inside
``Worker.acquire``; and a run publishes its completions to
``workflow.tasks_executed`` once per worker, when it ends.

The same run's bookkeeping is pinned the same way: unobserved and
unjournaled, it records one simulated-time tracer event per task (the
task span its ``ExecutionTrace`` is read from) and never digests the
graph; published to an enabled tracer, it records the whole timeline.
"""

import pytest

from repro.chaos import (ChaosSchedule, TaskFault, generate_schedule,
                         random_task_graph)
from repro.errors import ChaosError
from repro.obs import Observation, Tracer, observe
from repro.obs.metrics import Counter
from repro.workflow import recovery
from repro.workflow.graph import TaskGraph
from repro.workflow.recovery import ResilientServer, RetryPolicy
from repro.workflow.scheduler import make_policy
from repro.workflow.tracing import TASK_CATEGORY
from repro.workflow.worker import Worker

from tests.chaos.conftest import CONFIG, make_pool

SMALL, LARGE = 150, 1000
POOL = 8
COUNTED = ((Worker, "can_run"), (TaskGraph, "dependencies"))
EXECUTED = "workflow.tasks_executed"


def calls_per_task(num_tasks: int) -> dict:
    """Calls of each counted method per task over one fault-free
    b-level run of ``random_task_graph(1, num_tasks)`` on 8 x 2 cpus,
    and (not per task) the run's ``Counter.inc`` calls on
    ``workflow.tasks_executed``."""
    calls = {name: 0 for _owner, name in COUNTED}
    publishes = []
    inc = Counter.inc

    def counting_inc(counter, *args, **labels):
        if counter.name == EXECUTED:
            publishes.append(labels)
        return inc(counter, *args, **labels)

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    graph = random_task_graph(1, num_tasks=num_tasks)
    with pytest.MonkeyPatch.context() as patch:
        for owner, name in COUNTED:
            patch.setattr(owner, name,
                          counting(name, getattr(owner, name)))
        patch.setattr(Counter, "inc", counting_inc)
        trace, _stats = ResilientServer(
            make_pool(POOL), policy=make_policy("b-level")
        ).run(graph)
    assert len(trace.records) == num_tasks
    per_task = {name: total / num_tasks for name, total in calls.items()}
    return {**per_task, "publishes": len(publishes)}


@pytest.fixture(scope="module")
def per_task():
    """Calls per task at both sizes, measured once for the module."""
    return {size: calls_per_task(size) for size in (SMALL, LARGE)}


class TestCallsPerTask:
    def test_counts_do_not_grow_with_the_graph(self, per_task):
        for _owner, name in COUNTED:
            small = per_task[SMALL][name]
            assert per_task[LARGE][name] <= 1.5 * small, (name, per_task)

    def test_dependencies_are_read_at_set_up_only(self, per_task):
        for counts in per_task.values():
            assert counts["dependencies"] <= 2, per_task

    def test_capacity_is_read_once_per_launch(self, per_task):
        # the check inside Worker.acquire and nothing else
        for counts in per_task.values():
            assert counts["can_run"] <= 1, per_task

    def test_completions_are_published_once_per_worker(self, per_task):
        for counts in per_task.values():
            assert counts["publishes"] <= POOL, per_task


#: Simulated-time tracer events of the 150-task run when every run
#: recorded its whole timeline: per task a dispatch instant, a
#: ``ready_tasks`` counter, a slot request, a slot release and the task
#: span, plus 185 staging spans.
WHOLE_TIMELINE = 935


def recorded(num_tasks: int, **run_options) -> tuple:
    """(sim-tracer events, trace, ``TaskGraph.digest`` calls) of one
    fault-free b-level run of ``random_task_graph(1, num_tasks)``."""
    tracers, digests = [], []
    make_sim_tracer, digest = recovery.make_sim_tracer, TaskGraph.digest

    def capturing(sim, graph_name):
        tracers.append(make_sim_tracer(sim, graph_name))
        return tracers[-1]

    def counting(graph):
        digests.append(graph.name)
        return digest(graph)

    graph = random_task_graph(1, num_tasks=num_tasks)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recovery, "make_sim_tracer", capturing)
        patch.setattr(TaskGraph, "digest", counting)
        trace, _stats = ResilientServer(
            make_pool(8), policy=make_policy("b-level")
        ).run(graph, **run_options)
    return tracers[0].events, trace, len(digests)


class TestRecordedEvents:
    def test_an_unobserved_run_records_one_event_per_task(self):
        events, _trace, digests = recorded(SMALL)
        assert len(events) == SMALL
        assert digests == 0

    def test_a_published_run_records_the_whole_timeline(self):
        events, trace, _digests = recorded(SMALL, tracer=Tracer())
        assert len(events) == WHOLE_TIMELINE
        _events, unobserved, _digests = recorded(SMALL)
        assert trace.to_json() == unobserved.to_json()


def published_and_recorded(graph, chaos=None, **server_options) -> tuple:
    """A b-level run's ``workflow.tasks_executed`` series per worker,
    its completions per worker as its simulated-time tracer recorded
    them, and the error it raised (None when it finished)."""
    tracers = []
    make_sim_tracer = recovery.make_sim_tracer

    def capturing(sim, graph_name):
        tracers.append(make_sim_tracer(sim, graph_name))
        return tracers[-1]

    observation, raised = Observation(), None
    with pytest.MonkeyPatch.context() as patch, observe(observation):
        patch.setattr(recovery, "make_sim_tracer", capturing)
        try:
            ResilientServer(make_pool(4), **server_options).run(
                graph, chaos=chaos)
        except ChaosError as exc:
            raised = exc
    recorded = {}
    for event in tracers[0].events:
        if event.category == TASK_CATEGORY:
            worker = event.args["worker"]
            recorded[worker] = recorded.get(worker, 0) + 1
    executed = observation.metrics.counter(EXECUTED)
    series = {worker: executed.value(worker=worker) for worker in recorded}
    assert executed.total() == sum(series.values())
    return series, recorded, raised


class TestPublishedCompletions:
    """``workflow.tasks_executed`` counts what the trace records."""

    @pytest.mark.parametrize("faulted", [False, True],
                             ids=["fault-free", "chaos"])
    def test_series_per_worker_is_the_trace_per_worker(self, faulted):
        graph = random_task_graph(2, num_tasks=40)
        chaos = generate_schedule(
            graph, [f"w{index}" for index in range(4)], 1, CONFIG,
        ) if faulted else None
        series, recorded, raised = published_and_recorded(graph, chaos)
        assert raised is None
        assert series == recorded and sum(recorded.values()) >= 40

    def test_a_run_that_raises_still_publishes(self):
        graph = random_task_graph(2, num_tasks=40)
        doomed = ChaosSchedule(0, [TaskFault("t30", failures=3)])
        series, recorded, raised = published_and_recorded(
            graph, doomed, retry=RetryPolicy(max_attempts=3))
        assert isinstance(raised, ChaosError)
        assert series == recorded and sum(recorded.values()) > 0
