"""The one-pass b-level select chooses what the per-demand spelling did.

``BLevelScheduler.select`` reads the pool once: the first worker with
the most free cpus (then the highest speed) among those with a free
cpu, and the first ready task that fits it. The reference below is the
choice as it used to be spelled: ``_fitting`` lists the workers that
fit each ready task and ``max`` takes the freest, fastest of them. The
two must agree on every pool, and a whole run under either must leave
the same trace, with and without a worker crash.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosSchedule, WorkerCrash, random_task_graph
from repro.workflow.graph import TaskGraph, WorkflowTask
from repro.workflow.recovery import ResilientServer
from repro.workflow.scheduler import BLevelScheduler
from repro.workflow.worker import Worker
from tests.conftest import examples


class ReferenceBLevel(BLevelScheduler):
    """B-level through ``_fitting`` and a keyed ``max`` per task."""

    def select(self, ready, workers, graph, locations, transfer_cost):
        for task_name, eligible in self._fitting(ready, workers, graph):
            return task_name, max(
                eligible, key=lambda w: (w.free_cpus, w.speed_factor))
        return None


#: (cpus, speed_factor, busy cpus) per worker; few speeds, so ties.
WORKERS = st.tuples(st.integers(1, 4), st.sampled_from([0.5, 1.0, 2.0]),
                    st.integers(0, 4))


@settings(max_examples=examples(400), deadline=None)
@given(specs=st.lists(WORKERS, min_size=1, max_size=8),
       demands=st.lists(st.integers(1, 4), max_size=10))
def test_one_pass_select_matches_the_reference(specs, demands):
    workers = []
    for index, (cpus, speed, busy) in enumerate(specs):
        worker = Worker(f"w{index}", node_name="n", cpus=cpus,
                        speed_factor=speed)
        worker.busy_cpus = min(busy, cpus)
        workers.append(worker)
    graph = TaskGraph("demands")
    for index, cpus in enumerate(demands):
        graph.add_task(WorkflowTask(f"t{index}", outputs=[f"o{index}"],
                                    cpus=cpus))
    ready = list(graph.tasks)
    chosen = BLevelScheduler().select(ready, workers, graph, {}, None)
    expected = ReferenceBLevel().select(ready, workers, graph, {}, None)
    if expected is None:
        assert chosen is None
    else:
        assert chosen[0] == expected[0] and chosen[1] is expected[1]


def mixed_pool():
    """Six workers of mixed width and speed, some tied on both."""
    shapes = [(2, 1.0), (2, 2.0), (4, 2.0), (2, 0.5), (1, 1.0), (2, 2.0)]
    return [Worker(f"w{index}", node_name=f"n{index}", cpus=cpus,
                   speed_factor=speed)
            for index, (cpus, speed) in enumerate(shapes)]


@pytest.mark.parametrize("graph_seed", [0, 1, 2])
@pytest.mark.parametrize("chaos", [
    None,
    ChaosSchedule(0, [WorkerCrash("w2", at_time=1.5, restart_after=2.0)]),
], ids=["fault-free", "crash-and-restart"])
def test_a_run_leaves_the_reference_trace(graph_seed, chaos):
    traces = []
    for policy in (BLevelScheduler(), ReferenceBLevel()):
        trace, _stats = ResilientServer(mixed_pool(), policy=policy).run(
            random_task_graph(graph_seed, num_tasks=60), chaos=chaos)
        traces.append(trace.to_json())
    assert traces[0] == traces[1]
    if chaos is not None:
        assert '"worker-crash"' in traces[0]
