"""Lineage over a deep graph ends in a trace, not a traceback.

Losing the object at the head of a long chain invalidates every task
downstream of it. Done by recursion through the consumers, that walk
raised ``RecursionError`` out of ``ResilientServer.run`` at about a
thousand tasks; it is iterative now, and emits its records in the
order the recursion did (the digest of a chain the recursion could
still walk is pinned, one golden row per record).
"""

import pytest

from repro.chaos import ChaosSchedule, WorkerCrash
from repro.workflow.graph import DataObject, TaskGraph, WorkflowTask
from repro.workflow.recovery import ResilientServer

from tests import goldens
from tests.chaos.conftest import make_pool


def run_crashed_chain(length: int):
    """A chain of 1 s tasks on two 1-cpu workers, both of which crash
    (and restart) while the last task but one runs: every finished
    task's output is lost at once."""
    graph = TaskGraph("deep-chain")
    graph.add_object(DataObject("o-1"))
    for index in range(length):
        graph.add_task(WorkflowTask(
            f"t{index}", inputs=[f"o{index - 1}"],
            outputs=[f"o{index}"], duration_s=1.0,
        ))
    workers = make_pool(2, cpus=1)
    schedule = ChaosSchedule(0, [
        WorkerCrash(worker.name, at_time=length - 1.5, restart_after=1.0)
        for worker in workers
    ])
    trace, stats = ResilientServer(workers).run(graph, chaos=schedule)
    return graph, trace, stats


@goldens.suite("runs", ["deep-chain/300"])
def crashed_chain_trace(key):
    _graph, trace, _stats = run_crashed_chain(int(key.split("/")[1]))
    return trace.to_dict()


class TestDeepLineage:
    @pytest.mark.parametrize("length", [1500, 4000])
    def test_deep_chain_completes(self, length):
        graph, trace, stats = run_crashed_chain(length)
        assert {record.task for record in trace.records} == set(
            graph.tasks
        )
        assert stats.tasks_relineaged == length - 2

    def test_emission_order_is_the_recursive_walk_s(self):
        # 300 tasks: within reach of the recursive invalidate, whose
        # trace these rows were taken from
        _graph, trace, stats = run_crashed_chain(300)
        assert len(trace.records) == 598
        assert stats.tasks_relineaged == 298
        goldens.check("runs", "deep-chain/300", trace.to_dict())
