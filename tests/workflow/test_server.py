"""Tests for workers, scheduling policies and the workflow server."""

import pytest

from repro.chaos import ChaosSchedule, StragglerFault, random_task_graph
from repro.errors import WorkflowError
from repro.platform.topology import build_reference_ecosystem
from repro.workflow.graph import DataObject, TaskGraph, WorkflowTask
from repro.workflow.recovery import ResilientServer
from repro.workflow.scheduler import (
    BLevelScheduler,
    FIFOScheduler,
    LocalityScheduler,
    make_policy,
)
from repro.workflow.worker import Worker
from tests import goldens


def chain_and_fan() -> TaskGraph:
    """A long chain plus many independent short tasks."""
    graph = TaskGraph("mix")
    graph.add_object(DataObject("in", size_bytes=1000))
    previous = "in"
    for index in range(4):
        graph.add_task(WorkflowTask(
            f"chain{index}", inputs=[previous],
            outputs=[f"c{index}"], duration_s=1.0,
        ))
        previous = f"c{index}"
    for index in range(8):
        graph.add_task(WorkflowTask(
            f"leaf{index}", inputs=["in"],
            outputs=[f"l{index}"], duration_s=0.25,
        ))
    return graph


def pool(count=2, cpus=1):
    return [
        Worker(f"w{i}", node_name=f"n{i}", cpus=cpus)
        for i in range(count)
    ]


class TestWorker:
    def test_acquire_release(self):
        worker = Worker("w", node_name="n", cpus=2)
        worker.acquire(2)
        assert worker.free_cpus == 0
        worker.release(1)
        assert worker.free_cpus == 1

    def test_over_acquire_rejected(self):
        worker = Worker("w", node_name="n", cpus=1)
        worker.acquire(1)
        with pytest.raises(WorkflowError):
            worker.acquire(1)

    def test_over_release_rejected(self):
        worker = Worker("w", node_name="n", cpus=1)
        with pytest.raises(WorkflowError):
            worker.release(1)

    def test_speed_factor_scales_time(self):
        fast = Worker("f", node_name="n", cpus=1, speed_factor=2.0)
        assert fast.execution_time(1.0) == pytest.approx(0.5)


class TestServerExecution:
    def test_all_tasks_complete(self):
        server = ResilientServer(pool(3))
        trace, _ = server.run(chain_and_fan())
        assert len(trace.records) == 12

    def test_makespan_at_least_critical_path(self):
        graph = chain_and_fan()
        server = ResilientServer(pool(8))
        trace, _ = server.run(graph)
        assert trace.makespan >= max(graph.b_levels().values()) - 1e-9

    def test_makespan_at_most_serial(self):
        graph = chain_and_fan()
        server = ResilientServer(pool(4))
        trace, _ = server.run(graph)
        assert trace.makespan <= graph.total_work() + 1e-9

    def test_single_worker_serializes(self):
        graph = chain_and_fan()
        server = ResilientServer(pool(1))
        trace, _ = server.run(graph)
        # one worker, one slot: makespan == total work (+ staging 0,
        # data starts on the only worker)
        assert trace.makespan == pytest.approx(graph.total_work())

    def test_dependencies_respected(self):
        graph = chain_and_fan()
        server = ResilientServer(pool(4))
        trace, _ = server.run(graph)
        ends = {r.task: r.end for r in trace.records}
        starts = {r.task: r.start for r in trace.records}
        for index in range(1, 4):
            assert starts[f"chain{index}"] >= \
                ends[f"chain{index - 1}"] - 1e-9

    def test_parallelism_helps(self):
        graph = chain_and_fan()
        slow, _ = ResilientServer(pool(1)).run(graph)
        fast, _ = ResilientServer(pool(4)).run(graph)
        assert fast.makespan < slow.makespan

    def test_faster_worker_preferred_by_blevel(self):
        graph = chain_and_fan()
        workers = [
            Worker("slow", node_name="a", cpus=1, speed_factor=1.0),
            Worker("fast", node_name="b", cpus=1, speed_factor=4.0),
        ]
        server = ResilientServer(workers, policy=BLevelScheduler())
        trace, _ = server.run(graph)
        workers_used = [record.worker for record in trace.records]
        assert workers_used.count("fast") >= workers_used.count("slow")

    def test_utilization_bounds(self):
        graph = chain_and_fan()
        server = ResilientServer(pool(2))
        trace, _ = server.run(graph)
        busy = sum(record.duration for record in trace.records)
        assert 0.0 < busy <= 2 * trace.makespan

    def test_empty_worker_pool_rejected(self):
        with pytest.raises(WorkflowError):
            ResilientServer([])

    def test_duplicate_worker_names_rejected(self):
        with pytest.raises(WorkflowError):
            ResilientServer([
                Worker("w", node_name="a"), Worker("w", node_name="b"),
            ])

    def test_unknown_producer_is_a_workflow_error(self):
        # used to escape as a bare KeyError('ghost') from the ready scan
        graph = TaskGraph("haunted")
        graph.add_object(DataObject("x", producer="ghost"))
        graph.add_task(WorkflowTask("t", inputs=["x"], outputs=["y"]))
        with pytest.raises(WorkflowError, match="'x'.*'ghost'"):
            ResilientServer(pool(2)).run(graph)


class TestBusyAccounting:
    """The trace charges the stretched duration, not the nominal."""

    @staticmethod
    def chain(length):
        graph = TaskGraph("busy")
        graph.add_object(DataObject("in"))
        previous = "in"
        for index in range(length):
            graph.add_task(WorkflowTask(
                f"t{index}", inputs=[previous], outputs=[f"o{index}"],
                duration_s=1.0,
            ))
            previous = f"o{index}"
        return graph

    def test_slow_worker_is_fully_busy(self):
        worker = Worker("w", node_name="n", cpus=1, speed_factor=0.5)
        trace, _ = ResilientServer([worker]).run(self.chain(1))
        assert trace.makespan == pytest.approx(2.0)
        assert sum(r.end - r.start for r in trace.records) == \
            pytest.approx(2.0)

    def test_straggler_is_fully_busy(self):
        worker = Worker("w", node_name="n", cpus=1)
        trace, _ = ResilientServer([worker]).run(
            self.chain(2),
            chaos=ChaosSchedule(0, [StragglerFault(
                "w", at_time=0.5, duration_s=10.0, slowdown=2.0,
            )]),
        )
        # t0 started at full speed, t1 under the 2x slowdown
        assert trace.makespan == pytest.approx(3.0)
        assert sum(r.end - r.start for r in trace.records) == \
            pytest.approx(3.0)


class TestExternalInputHome:
    """An input's locality names a worker first, then a node."""

    @staticmethod
    def run(locality):
        graph = TaskGraph("home")
        graph.add_object(DataObject("in", size_bytes=10**6,
                                    locality=locality))
        graph.add_task(WorkflowTask(
            "t", inputs=["in"], outputs=["o"], duration_s=0.1,
        ))
        # "x" is the second worker's name and the first one's node
        workers = [
            Worker("a", node_name="x"), Worker("x", node_name="y"),
        ]
        trace, _ = ResilientServer(
            workers, policy=LocalityScheduler()
        ).run(graph)
        assert trace.bytes_moved == 0
        return trace.records[0].worker

    def test_worker_name_beats_node_name(self):
        assert self.run("x") == "x"

    def test_node_name_finds_first_worker_on_it(self):
        assert self.run("y") == "x"

    def test_unknown_locality_falls_back_to_first_worker(self):
        assert self.run("nowhere") == "a"
        assert self.run(None) == "a"


#: The fault-free grid, ``seed/policy/topology``. Its records were
#: taken when the engine that only ran fault-free graphs was deleted:
#: both engines agreed on every cell in everything but the
#: ``+recovery`` policy label, so they pin the fault-free timeline.
FAULT_FREE = [f"{seed}/{policy}/{topology}" for seed in range(5)
              for policy in ("b-level", "fifo", "locality")
              for topology in ("eco", "flat")]
ECOSYSTEM_NODES = ["edge-0", "power9-0", "cloudfpga-0", "edge-1"]


@goldens.suite("server", FAULT_FREE)
def fault_free_trace(key):
    seed, policy, topology = key.split("/")
    on_ecosystem = topology == "eco"
    nodes = ECOSYSTEM_NODES if on_ecosystem else ["n0", "n1", "n2", "n3"]
    workers = [
        Worker(f"w{index}", node_name=node, cpus=2)
        for index, node in enumerate(nodes)
    ]
    trace, _ = ResilientServer(
        workers,
        ecosystem=build_reference_ecosystem() if on_ecosystem else None,
        policy=make_policy(policy),
    ).run(random_task_graph(int(seed), num_tasks=24))
    return trace.to_dict()


@pytest.mark.parametrize("key", FAULT_FREE)
def test_fault_free_trace_pinned(key):
    goldens.check("server", key)


class TestPolicies:
    def test_factory(self):
        assert isinstance(make_policy("fifo"), FIFOScheduler)
        assert isinstance(make_policy("b-level"), BLevelScheduler)
        assert isinstance(make_policy("locality"), LocalityScheduler)
        with pytest.raises(ValueError):
            make_policy("round-robin")

    def test_blevel_beats_fifo_on_adversarial_graph(self):
        """FIFO picks short leaves first and delays the critical chain."""
        graph = TaskGraph("adversarial")
        graph.add_object(DataObject("in"))
        # leaves first so FIFO grabs them before the chain
        for index in range(6):
            graph.add_task(WorkflowTask(
                f"leaf{index}", inputs=["in"],
                outputs=[f"l{index}"], duration_s=1.0,
            ))
        previous = "in"
        for index in range(3):
            graph.add_task(WorkflowTask(
                f"chain{index}", inputs=[previous],
                outputs=[f"c{index}"], duration_s=2.0,
            ))
            previous = f"c{index}"
        fifo, _ = ResilientServer(
            pool(2), policy=FIFOScheduler()
        ).run(graph)
        blevel, _ = ResilientServer(
            pool(2), policy=BLevelScheduler()
        ).run(graph)
        assert blevel.makespan <= fifo.makespan

    def test_locality_reduces_movement_on_ecosystem(self):
        eco = build_reference_ecosystem()
        graph = TaskGraph("edge-data")
        graph.add_object(DataObject("sensor", size_bytes=10**6,
                                    locality="edge-0"))
        for index in range(4):
            graph.add_task(WorkflowTask(
                f"t{index}", inputs=["sensor"],
                outputs=[f"o{index}"], duration_s=0.01,
            ))

        def workers():
            return [
                Worker("edge-w", node_name="edge-0", cpus=4),
                Worker("cloud-w", node_name="power9-0", cpus=4),
            ]

        fifo, _ = ResilientServer(
            workers(), ecosystem=eco, policy=FIFOScheduler()
        ).run(graph)
        locality, _ = ResilientServer(
            workers(), ecosystem=eco, policy=LocalityScheduler()
        ).run(graph)
        assert locality.bytes_moved <= fifo.bytes_moved
        assert sum(r.transfer_seconds for r in locality.records) <= \
            sum(r.transfer_seconds for r in fifo.records) + 1e-9

    def test_trace_wait_accounting(self):
        graph = chain_and_fan()
        trace, _ = ResilientServer(pool(1)).run(graph)
        assert sum(r.start - r.ready_at for r in trace.records) > 0.0
