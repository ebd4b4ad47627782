"""Tests for the seeded chaos schedule and graph generators."""

import pytest

from repro.chaos import (
    ChaosConfig,
    LinkFault,
    ReconfigFault,
    StragglerFault,
    TaskFault,
    WorkerCrash,
    generate_schedule,
    random_task_graph,
)
from repro.chaos.faults import ANY_LINK
from repro.errors import ChaosError, WorkflowError

WORKERS = ["w0", "w1", "w2"]


class TestGraphGenerator:
    def test_same_seed_same_graph(self):
        a = random_task_graph(42)
        b = random_task_graph(42)
        assert set(a.tasks) == set(b.tasks)
        for name in a.tasks:
            assert a.tasks[name].inputs == b.tasks[name].inputs
            assert a.tasks[name].duration_s == b.tasks[name].duration_s
        assert {
            (o.name, o.size_bytes) for o in a.objects.values()
        } == {(o.name, o.size_bytes) for o in b.objects.values()}

    def test_different_seeds_differ(self):
        a = random_task_graph(1, num_tasks=20)
        b = random_task_graph(2, num_tasks=20)
        assert any(
            a.tasks[name].inputs != b.tasks[name].inputs
            or a.tasks[name].duration_s != b.tasks[name].duration_s
            for name in a.tasks
        )

    def test_generated_graph_is_valid_dag(self):
        for seed in range(10):
            graph = random_task_graph(seed)
            graph.validate()
            assert len(graph.topological_order()) == len(graph)

    @pytest.mark.parametrize("tasks", [0, -3])
    def test_a_graph_without_tasks_is_rejected(self, tasks):
        with pytest.raises(WorkflowError, match="at least one task"):
            random_task_graph(0, num_tasks=tasks)

    def test_size_and_cpu_bounds_respected(self):
        graph = random_task_graph(7, num_tasks=30)
        assert all(t.cpus <= 2 for t in graph.tasks.values())
        assert all(
            obj.size_bytes < 2_000_000 for obj in graph.objects.values()
        )


class TestScheduleGenerator:
    def test_same_seed_same_schedule(self):
        graph = random_task_graph(0)
        a = generate_schedule(graph, WORKERS, 5)
        b = generate_schedule(graph, WORKERS, 5)
        assert a.faults == b.faults

    def test_different_seeds_differ(self):
        graph = random_task_graph(0)
        a = generate_schedule(graph, WORKERS, 5)
        b = generate_schedule(graph, WORKERS, 6)
        assert a.faults != b.faults

    def test_requested_counts_per_class(self):
        graph = random_task_graph(0)
        config = ChaosConfig(crashes=3, link_faults=2,
                             reconfig_faults=2, stragglers=1,
                             task_faults=2)
        schedule = generate_schedule(graph, WORKERS, 1, config)
        by_type = {}
        for fault in schedule.faults:
            by_type[type(fault)] = by_type.get(type(fault), 0) + 1
        assert by_type[WorkerCrash] == 3
        assert by_type[ReconfigFault] == 2
        assert by_type[StragglerFault] == 1
        assert by_type[LinkFault] == 2
        assert by_type[TaskFault] == 2

    def test_survivable_by_construction(self):
        """Crashes restart, links heal, stragglers recover."""
        graph = random_task_graph(3)
        config = ChaosConfig(crashes=5, link_faults=5,
                             reconfig_faults=5, stragglers=5)
        schedule = generate_schedule(graph, WORKERS, 9, config)
        for fault in schedule.faults:
            if isinstance(fault, WorkerCrash):
                assert fault.restart_after is not None
            if isinstance(fault, LinkFault):
                assert fault.duration_s <= config.max_link_duration_s
            if isinstance(fault, ReconfigFault):
                assert fault.repair_s <= config.max_repair_s

    def test_wildcard_link_targets_without_topology(self):
        graph = random_task_graph(0)
        schedule = generate_schedule(
            graph, WORKERS, 2, ChaosConfig(link_faults=3)
        )
        for fault in schedule.faults:
            if isinstance(fault, LinkFault):
                assert fault.node_a == ANY_LINK

    def test_link_faults_fall_within_horizon(self):
        graph = random_task_graph(0)
        config = ChaosConfig(link_faults=4)
        schedule = generate_schedule(graph, WORKERS, 2, config)
        horizon = max(1.0, graph.total_work() / len(WORKERS))
        link_faults = [
            f for f in schedule.faults if isinstance(f, LinkFault)
        ]
        assert len(link_faults) == 4
        assert all(0.0 <= f.at_time <= horizon and f.duration_s >= 0.2
                   for f in link_faults)

    @pytest.mark.parametrize("count", ["crashes", "link_faults",
                                       "reconfig_faults", "stragglers",
                                       "task_faults"])
    def test_a_negative_fault_count_is_rejected(self, count):
        with pytest.raises(ChaosError, match=f"{count} must be non-negative"):
            ChaosConfig(**{count: -1})
        ChaosConfig(**{count: 0})  # no fault of the class is a scenario

    def test_zero_workers_rejected(self):
        with pytest.raises(ChaosError):
            generate_schedule(random_task_graph(0), [], 1)

    def test_describe_lists_counts(self):
        graph = random_task_graph(0)
        schedule = generate_schedule(graph, WORKERS, 4)
        text = schedule.describe()
        assert "seed=4" in text
        assert "worker-crash" in text


class TestFaultValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ChaosError):
            WorkerCrash("w0", at_time=-1.0)

    def test_bad_bandwidth_factor_rejected(self):
        with pytest.raises(ChaosError):
            LinkFault("a", "b", at_time=0.0, duration_s=1.0,
                      bandwidth_factor=0.0)
        with pytest.raises(ChaosError):
            LinkFault("a", "b", at_time=0.0, duration_s=1.0,
                      bandwidth_factor=1.5)

    def test_partition_ignores_bandwidth_factor(self):
        fault = LinkFault("a", "b", at_time=0.0, duration_s=1.0,
                          partition=True)
        assert fault.kind == "link-partition"

    def test_straggler_needs_real_slowdown(self):
        with pytest.raises(ChaosError):
            StragglerFault("w0", at_time=0.0, duration_s=1.0,
                           slowdown=1.0)

    def test_task_fault_needs_positive_failures(self):
        with pytest.raises(ChaosError):
            TaskFault("t0", failures=0)
