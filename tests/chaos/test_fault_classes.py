"""Each fault class exercised in isolation against ResilientServer.

The invariants suite throws everything at once; these tests pin down
the *mechanism* of each fault class — what breaks, what the recovery
path does, and what lands in the trace.
"""

import pytest

from repro.chaos.faults import (
    ANY_LINK,
    LinkFault,
    ReconfigFault,
    StragglerFault,
    TaskFault,
    WorkerCrash,
)
from repro.chaos.schedule import ChaosSchedule
from repro.errors import WorkflowError
from repro.workflow.graph import DataObject, TaskGraph, WorkflowTask
from repro.workflow.recovery import (
    _DEFAULT_BANDWIDTH, _DEFAULT_LATENCY_S, ResilientServer, RetryPolicy)
from repro.workflow.worker import Worker

from tests.chaos.conftest import chain_graph, make_pool


def fan_graph(width=6, duration=1.0) -> TaskGraph:
    graph = TaskGraph("fan")
    graph.add_object(DataObject("in", size_bytes=1000, locality="w0"))
    for index in range(width):
        graph.add_task(WorkflowTask(
            f"leaf{index}", inputs=["in"], outputs=[f"l{index}"],
            duration_s=duration,
        ))
    return graph


def big_input_graph(size_bytes=10**9) -> TaskGraph:
    """Two independent consumers of one large input: whichever task
    is placed off ``w0`` must stage the input over the (degradable)
    default path."""
    graph = TaskGraph("big")
    graph.add_object(DataObject(
        "in", size_bytes=size_bytes, locality="w0",
    ))
    for index in range(2):
        graph.add_task(WorkflowTask(
            f"t{index}", inputs=["in"], outputs=[f"o{index}"],
            duration_s=1.0,
        ))
    return graph


def run_under(pool, graph, *faults, **server_options):
    """(trace, stats) of ``graph`` run on ``pool`` under exactly
    ``faults``."""
    return ResilientServer(pool, **server_options).run(
        graph, chaos=ChaosSchedule(seed=0, faults=list(faults)))


class TestWorkerCrashAndRestart:
    def test_restarted_worker_is_readmitted_and_reused(self):
        graph = fan_graph(width=10)
        trace, stats = run_under(make_pool(2), graph, WorkerCrash(
            "w0", at_time=0.5, restart_after=0.5))
        assert {r.task for r in trace.records} == set(graph.tasks)
        assert stats.failures == 1
        assert stats.restarts == 1
        restarts = [
            r for r in trace.recoveries if r.action == "worker-restart"
        ]
        assert len(restarts) == 1
        restart_time = restarts[0].time
        # the restarted worker took on new work after re-admission
        assert any(
            r.worker == "w0" and r.start >= restart_time - 1e-9
            for r in trace.records
        )

    def test_crash_loses_store_and_triggers_recovery(self):
        graph = chain_graph(length=3, duration=1.0)
        trace, stats = run_under(make_pool(2), graph, WorkerCrash(
            "w0", at_time=1.5, restart_after=0.4))
        assert {r.task for r in trace.records} == set(graph.tasks)
        # in + o0 (and the mid-flight t1 attempt) lived only on w0
        assert stats.objects_lost >= 1
        assert stats.tasks_relineaged + stats.inputs_refetched >= 1

    def test_permanent_crash_of_sole_worker_raises(self):
        with pytest.raises(WorkflowError, match="all workers failed"):
            run_under(make_pool(1), chain_graph(length=2, duration=2.0),
                      WorkerCrash("w0", at_time=0.5))

    def test_restart_pending_keeps_workflow_alive(self):
        """Every worker down at once — but a restart is scheduled, so
        the run must wait it out rather than abort."""
        graph = chain_graph(length=2, duration=1.0)
        trace, stats = run_under(make_pool(1), graph, WorkerCrash(
            "w0", at_time=0.5, restart_after=0.5))
        assert {r.task for r in trace.records} == set(graph.tasks)
        assert stats.restarts == 1

    def test_refetch_target_dying_in_flight_passes_it_on(self):
        """The only copy of ``x`` dies with w0 and is re-fetched to
        w1, which dies 20 ms into the 50 ms fetch with no restart
        pending: the fetch goes on to w2 instead of waiting for a
        readmission that never comes."""
        graph = TaskGraph("refetch")
        graph.add_object(DataObject("x", size_bytes=1000, locality="w0"))
        graph.add_task(WorkflowTask("a", outputs=["oa"], duration_s=5.0))
        graph.add_task(WorkflowTask(
            "b", inputs=["oa", "x"], outputs=["ob"], duration_s=1.0,
        ))
        trace, stats = run_under(
            make_pool(3, cpus=1), graph,
            WorkerCrash("w0", at_time=1.0), WorkerCrash("w1", at_time=1.02))
        assert {r.task for r in trace.records} == set(graph.tasks)
        assert trace.makespan == pytest.approx(11.05)
        assert [(r.target, r.detail) for r in trace.recoveries
                if r.action == "refetch"] == [("x", "to w2")]
        assert stats.inputs_refetched == 1

    def test_unknown_crash_target_rejected_eagerly(self):
        with pytest.raises(WorkflowError, match="unknown worker"):
            run_under(make_pool(2), chain_graph(),
                      WorkerCrash("ghost", at_time=0.5))


class TestLinkFaults:
    def test_degradation_slows_staging(self):
        clean, _ = run_under(make_pool(2, cpus=1), big_input_graph())
        degraded, stats = run_under(
            make_pool(2, cpus=1), big_input_graph(), LinkFault(
                ANY_LINK, ANY_LINK, at_time=0.0, duration_s=0.5,
                bandwidth_factor=0.1))
        assert stats.link_faults == 1
        assert degraded.makespan > clean.makespan * 2
        assert degraded.faults_by_kind() == {"link-degradation": 1}
        assert any(
            r.action == "link-heal" for r in degraded.recoveries
        )

    def test_partition_forces_backoff_then_heals(self):
        graph = big_input_graph()
        trace, stats = run_under(make_pool(2, cpus=1), graph, LinkFault(
            ANY_LINK, ANY_LINK, at_time=0.0, duration_s=0.6, partition=True))
        assert {r.task for r in trace.records} == set(graph.tasks)
        assert trace.faults_by_kind() == {"link-partition": 1}
        # staging across the severed path was retried with backoff
        assert stats.retries >= 1
        assert stats.backoff_seconds > 0.0
        actions = trace.recoveries_by_action()
        assert actions.get("backoff", 0) >= 1
        assert actions.get("retry", 0) >= 1
        assert actions.get("link-heal", 0) == 1
        # the input crossed the path, and only once it had healed
        heal_time = next(
            r.time for r in trace.recoveries if r.action == "link-heal"
        )
        staged = [r for r in trace.records if r.transfer_seconds > 0.0]
        assert staged and all(r.start >= heal_time - 1e-9 for r in staged)

    def test_stacked_faults_heal_out_of_order_around_a_partition(self):
        """Two degradations of the default path, the later healing
        first, and a partition inside the first: each staging pays the
        faults in force when it started, and none crosses the
        partition — the attempts that meet it back off."""
        graph = TaskGraph("spread")
        for index in range(16):
            graph.add_object(DataObject(
                f"in{index}", size_bytes=10**8, locality="w0"))
            graph.add_task(WorkflowTask(
                f"t{index}", inputs=[f"in{index}"], outputs=[f"o{index}"],
                duration_s=0.3,
            ))
        faults = [
            LinkFault(ANY_LINK, ANY_LINK, at_time=0.2, duration_s=2.0,
                      bandwidth_factor=0.5, latency_add_s=0.005),
            LinkFault(ANY_LINK, ANY_LINK, at_time=0.7, duration_s=0.6,
                      bandwidth_factor=0.25, latency_add_s=0.02),
            LinkFault(ANY_LINK, ANY_LINK, at_time=1.6, duration_s=0.5,
                      partition=True),
        ]
        trace, _stats = run_under(make_pool(3, cpus=1), graph, *faults)
        factors = set()
        for record in (r for r in trace.records if r.bytes_moved):
            factor, latency_add = 1.0, 0.0
            for fault in faults:
                if fault.at_time < record.start < fault.at_time + fault.duration_s:
                    assert not fault.partition
                    factor *= fault.bandwidth_factor
                    latency_add += fault.latency_add_s
            factors.add(factor)
            assert record.transfer_seconds == (
                _DEFAULT_LATENCY_S + latency_add
                + record.bytes_moved / (_DEFAULT_BANDWIDTH * factor))
        assert factors == {1.0, 0.5, 0.125}
        backoffs = [r for r in trace.recoveries if r.action == "backoff"]
        assert backoffs and all(
            1.6 <= r.time < 2.1 and "partitioned" in r.detail
            for r in backoffs)

    def test_targeted_fault_needs_ecosystem(self):
        with pytest.raises(WorkflowError, match="no ecosystem"):
            run_under(make_pool(2), chain_graph(), LinkFault(
                "edge-0", "dc-switch", at_time=0.0, duration_s=1.0,
                partition=True))

    def test_targeted_fault_on_reference_ecosystem(self):
        from repro.platform.topology import build_reference_ecosystem

        eco = build_reference_ecosystem()
        workers = [
            Worker("w0", node_name="edge-0", cpus=2),
            Worker("w1", node_name="power9-0", cpus=2),
        ]
        graph = TaskGraph("eco")
        graph.add_object(DataObject(
            "in", size_bytes=10**7, locality="edge-0",
        ))
        for index in range(4):
            graph.add_task(WorkflowTask(
                f"t{index}", inputs=["in"], outputs=[f"o{index}"],
                duration_s=0.5,
            ))
        trace, stats = run_under(workers, graph, LinkFault(
            "dc-switch", "power9-0", at_time=0.0, duration_s=0.5,
            partition=True), ecosystem=eco)
        assert {r.task for r in trace.records} == set(graph.tasks)
        assert stats.link_faults == 1
        # the overlay is cleaned up after healing
        assert not eco.is_partitioned("dc-switch", "power9-0")


class TestReconfigurationFaults:
    def test_store_survives_role_reconfiguration(self):
        """A vFPGA reconfig failure takes the worker out of the pool
        but the shell keeps serving its object store: nothing is lost,
        nothing is re-lineaged."""
        graph = chain_graph(length=3, duration=1.0)
        trace, stats = run_under(make_pool(2), graph, ReconfigFault(
            "w0", at_time=1.5, repair_s=0.5))
        assert {r.task for r in trace.records} == set(graph.tasks)
        assert stats.reconfig_faults == 1
        assert stats.objects_lost == 0
        assert stats.tasks_relineaged == 0
        assert stats.inputs_refetched == 0
        assert trace.faults_by_kind() == {"reconfig-failure": 1}
        assert trace.recoveries_by_action().get("worker-readmit") == 1

    def test_midflight_attempt_on_reconfiguring_worker_requeued(self):
        graph = chain_graph(length=2, duration=2.0)
        trace, stats = run_under(make_pool(2), graph, ReconfigFault(
            "w0", at_time=1.0, repair_s=0.5))
        assert {r.task for r in trace.records} == set(graph.tasks)
        assert stats.tasks_requeued >= 1


class TestStragglers:
    def test_straggler_stretches_execution(self):
        clean, _ = run_under(make_pool(1), chain_graph(length=3))
        slowed, stats = run_under(
            make_pool(1), chain_graph(length=3, duration=1.0),
            StragglerFault("w0", at_time=0.0, duration_s=100.0, slowdown=2.0))
        assert stats.stragglers == 1
        assert slowed.makespan == pytest.approx(
            clean.makespan * 2.0, rel=0.01
        )
        for record in slowed.records:
            assert record.end - record.start == pytest.approx(
                2.0, rel=0.01
            )

    def test_slowdown_cleared_after_window(self):
        pool = make_pool(1)
        trace, _stats = run_under(
            pool, chain_graph(length=4, duration=1.0),
            StragglerFault("w0", at_time=0.0, duration_s=2.5, slowdown=3.0))
        assert pool[0].slowdown == 1.0
        assert any(
            r.action == "straggler-clear" for r in trace.recoveries
        )
        # tasks started after the window run at nominal speed again
        clear_time = next(
            r.time for r in trace.recoveries
            if r.action == "straggler-clear"
        )
        post = [r for r in trace.records if r.start >= clear_time]
        assert post
        for record in post:
            assert record.end - record.start == pytest.approx(
                1.0, rel=0.01
            )

    def test_timeout_watchdog_requeues_straggling_attempt(self):
        graph = fan_graph(width=4, duration=1.0)
        trace, stats = run_under(
            make_pool(2), graph,
            StragglerFault("w0", at_time=0.0, duration_s=2.0, slowdown=4.0),
            retry=RetryPolicy(task_timeout_s=1.5))
        assert {r.task for r in trace.records} == set(graph.tasks)
        assert stats.tasks_requeued >= 1
        assert any(
            "timeout" in r.detail for r in trace.recoveries
            if r.action == "backoff"
        )
        # no completed record ever exceeded the watchdog
        for record in trace.records:
            assert record.end - record.start <= 1.5 + 1e-9


class TestTransientTaskFaults:
    def test_faults_consume_budget_then_succeed(self):
        graph = chain_graph(length=2, duration=1.0)
        trace, stats = run_under(make_pool(2), graph,
                                 TaskFault("t0", failures=2))
        assert {r.task for r in trace.records} == set(graph.tasks)
        assert stats.task_faults == 2
        assert trace.faults_by_kind() == {"task-fault": 2}
        # only the successful attempt is recorded
        assert len([r for r in trace.records if r.task == "t0"]) == 1

    def test_backoff_escalates_between_retries(self):
        trace, stats = run_under(make_pool(1), chain_graph(length=1),
                                 TaskFault("t0", failures=3))
        backoffs = [
            r for r in trace.recoveries
            if r.action == "backoff" and r.target == "t0"
        ]
        assert len(backoffs) == 3
        policy = RetryPolicy()  # the server's default
        expected = sum(policy.backoff_for(n) for n in (1, 2, 3))
        assert stats.backoff_seconds == pytest.approx(expected)
        # exponential: each backoff doubles
        assert policy.backoff_for(2) == 2 * policy.backoff_for(1)

    def test_unknown_task_fault_rejected_eagerly(self):
        with pytest.raises(WorkflowError, match="unknown task"):
            run_under(make_pool(2), chain_graph(),
                      TaskFault("ghost", failures=1))


class TestRetryPolicy:
    def test_backoff_is_capped(self):
        policy = RetryPolicy(base_backoff_s=0.1, backoff_factor=10.0,
                             max_backoff_s=1.0)
        assert policy.backoff_for(1) == pytest.approx(0.1)
        assert policy.backoff_for(2) == pytest.approx(1.0)
        assert policy.backoff_for(9) == pytest.approx(1.0)
