"""The engine's cost per task must not grow with the graph.

Pinned as counts, not seconds: how often a fault-free b-level run asks
a worker whether a task fits (``Worker.can_run``) and reads a task's
dependency list (``TaskGraph.dependencies``), per task, at two graph
sizes. An engine that re-derives readiness or capacity per launch
shows up as counts that climb with the size (53 -> 1331 ``can_run``
and 15 -> 293 ``dependencies`` calls per task between 150 and 1000
tasks before the unmet-dependency counters and the ordered ready
queue); wall-clock time is the benchmark's business.

The same run's bookkeeping is pinned the same way: unobserved and
unjournaled, it records one simulated-time tracer event per task (the
task span its ``ExecutionTrace`` is read from) and never digests the
graph; published to an enabled tracer, it records the whole timeline.
"""

import pytest

from repro.chaos import random_task_graph
from repro.obs import Tracer
from repro.workflow import recovery
from repro.workflow.graph import TaskGraph
from repro.workflow.recovery import ResilientServer
from repro.workflow.scheduler import make_policy
from repro.workflow.worker import Worker

from tests.chaos.conftest import make_pool

SMALL, LARGE = 150, 1000
COUNTED = ((Worker, "can_run"), (TaskGraph, "dependencies"))


def calls_per_task(num_tasks: int) -> dict:
    """Calls of each counted method per task over one fault-free
    b-level run of ``random_task_graph(1, num_tasks)`` on 8 x 2 cpus."""
    calls = {name: 0 for _owner, name in COUNTED}

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
        trace, _stats = ResilientServer(
            make_pool(8), policy=make_policy("b-level")
        ).run(graph)
    assert len(trace.records) == num_tasks
    return {name: total / num_tasks for name, total in calls.items()}


@pytest.fixture(scope="module")
def per_task():
    """Calls per task at both sizes, measured once for the module."""
    return {size: calls_per_task(size) for size in (SMALL, LARGE)}


class TestCallsPerTask:
    def test_counts_do_not_grow_with_the_graph(self, per_task):
        for name, small in per_task[SMALL].items():
            assert per_task[LARGE][name] <= 1.5 * small, (name, per_task)

    def test_dependencies_are_read_at_set_up_only(self, per_task):
        for counts in per_task.values():
            assert counts["dependencies"] <= 2, per_task

    def test_capacity_is_read_once_per_launch(self, per_task):
        # 8 workers asked once for the launched task's demand, plus
        # the check inside Worker.acquire
        for counts in per_task.values():
            assert counts["can_run"] <= 16, per_task


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
