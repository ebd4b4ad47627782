"""The engine's cost per task must not grow with the graph.

Pinned as counts, not seconds: how often a fault-free b-level run asks
a worker whether a task fits (``Worker.can_run``) and reads a task's
dependency list (``TaskGraph.dependencies``), per task, at two graph
sizes. An engine that re-derives readiness or capacity per launch
shows up as counts that climb with the size (53 -> 1331 ``can_run``
and 15 -> 293 ``dependencies`` calls per task between 150 and 1000
tasks before the unmet-dependency counters and the ordered ready
queue); wall-clock time is the benchmark's business.
"""

import pytest

from repro.chaos import random_task_graph
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
