"""Tests for crash recovery, lineage re-execution and migration."""

import pytest

from repro.chaos import ChaosSchedule, ReconfigFault, WorkerCrash
from repro.errors import WorkflowError
from repro.workflow.graph import DataObject, TaskGraph, WorkflowTask
from repro.workflow.journal import RunJournal
from repro.workflow.recovery import (
    RecoveryStats,
    ResilientServer,
    _Run,
)
from repro.workflow.scheduler import POLICIES, make_policy
from tests.chaos.conftest import chain_graph, make_pool as pool


def fan_graph(width=6) -> TaskGraph:
    graph = TaskGraph("fan")
    graph.add_object(DataObject("in", size_bytes=1000, locality="w0"))
    for index in range(width):
        graph.add_task(WorkflowTask(
            f"leaf{index}", inputs=["in"], outputs=[f"l{index}"],
            duration_s=1.0,
        ))
    graph.add_task(WorkflowTask(
        "join", inputs=[f"l{index}" for index in range(width)],
        outputs=["out"], duration_s=0.5,
    ))
    return graph


def crashes(*victims) -> ChaosSchedule:
    """Permanent worker crashes, one per (worker, at_time) pair."""
    return ChaosSchedule(0, [
        WorkerCrash(worker, at_time) for worker, at_time in victims
    ])


class TestNoFailures:
    def test_empty_schedule_is_the_fault_free_run(self):
        trace, stats = ResilientServer(pool()).run(fan_graph())
        assert len(trace.records) == 7
        assert stats == RecoveryStats()
        empty, empty_stats = ResilientServer(pool()).run(
            fan_graph(), chaos=ChaosSchedule(seed=0)
        )
        assert empty.to_json() == trace.to_json()
        assert empty_stats == RecoveryStats()

    def test_all_tasks_complete(self):
        graph = chain_graph()
        trace, _stats = ResilientServer(pool()).run(graph)
        assert {r.task for r in trace.records} == set(graph.tasks)


class TestCrashRecovery:
    def test_running_task_requeued(self):
        graph = chain_graph(length=3, duration=2.0)
        server = ResilientServer(pool(2))
        trace, stats = server.run(
            graph, chaos=crashes(("w0", 1.0))
        )
        assert stats.failures == 1
        # the mid-flight task was re-run elsewhere
        assert stats.tasks_requeued + stats.tasks_relineaged >= 1
        executed_workers = {r.worker for r in trace.records}
        assert "w0" not in executed_workers or all(
            r.end <= 1.0 + 1e-9 for r in trace.records
            if r.worker == "w0"
        )
        assert {r.task for r in trace.records} >= set(graph.tasks)

    def test_lost_intermediate_recomputed_via_lineage(self):
        # kill the worker after it produced o0/o1 but before the end
        graph = chain_graph(length=4, duration=1.0)
        server = ResilientServer(pool(2))
        trace, stats = server.run(
            graph, chaos=crashes(("w0", 2.5))
        )
        completed = {r.task for r in trace.records}
        assert completed >= set(graph.tasks)
        # some producer ran twice (lineage re-execution) or the input
        # was re-fetched
        assert stats.objects_lost >= 1
        assert stats.tasks_relineaged + stats.inputs_refetched >= 1

    def test_external_input_refetched(self):
        # kill the input's home before any other worker finished
        # staging a copy: the only copy dies and must be re-fetched
        # from durable storage
        graph = fan_graph()
        server = ResilientServer(pool(3))
        trace, stats = server.run(
            graph, chaos=crashes(("w0", 0.0005))
        )
        assert {r.task for r in trace.records} >= set(graph.tasks)
        assert stats.objects_lost >= 1
        assert stats.inputs_refetched >= 1

    def test_surviving_copy_avoids_refetch(self):
        # by 0.5 s every worker staged a copy of the input: losing the
        # home costs nothing
        graph = fan_graph()
        server = ResilientServer(pool(3))
        trace, stats = server.run(
            graph, chaos=crashes(("w0", 0.5))
        )
        assert {r.task for r in trace.records} >= set(graph.tasks)
        assert stats.objects_lost == 0
        assert stats.inputs_refetched == 0

    def test_makespan_degrades_gracefully(self):
        graph = fan_graph(width=8)
        clean, _ = ResilientServer(pool(3)).run(fan_graph(width=8))
        crashed, stats = ResilientServer(pool(3)).run(
            graph, chaos=crashes(("w1", 0.5))
        )
        assert stats.failures == 1
        assert crashed.makespan >= clean.makespan
        # but not catastrophically: bounded by a serial re-run
        assert crashed.makespan < graph.total_work() * 2

    def test_all_workers_dead_raises(self):
        graph = chain_graph(length=3, duration=5.0)
        server = ResilientServer(pool(2))
        with pytest.raises(WorkflowError, match="all workers failed"):
            server.run(graph, chaos=crashes(("w0", 1.0), ("w1", 1.5)))

    def test_unknown_worker_failure_rejected(self):
        server = ResilientServer(pool(2))
        with pytest.raises(WorkflowError, match="unknown worker"):
            server.run(
                chain_graph(),
                chaos=crashes(("ghost", 0.1)),
            )

    def test_two_failures_survived(self):
        graph = fan_graph(width=10)
        server = ResilientServer(pool(4))
        trace, stats = server.run(
            graph, chaos=crashes(("w0", 0.4), ("w3", 1.2))
        )
        assert stats.failures == 2
        assert {r.task for r in trace.records} >= set(graph.tasks)


class TestEdgeCases:
    def test_crash_loses_only_copy_of_multi_consumer_object(self):
        """The producer's worker dies holding the sole copy of an
        object three consumers need: lineage must re-run the producer
        and every consumer must still complete."""
        graph = TaskGraph("multi-consumer")
        graph.add_object(DataObject("in", size_bytes=1000,
                                    locality="w0"))
        graph.add_task(WorkflowTask(
            "producer", inputs=["in"], outputs=["shared"],
            duration_s=1.0,
        ))
        # big enough that consumers are still staging at crash time
        graph.set_object_size("shared", 10**8)
        for index in range(3):
            graph.add_task(WorkflowTask(
                f"consumer{index}", inputs=["shared"],
                outputs=[f"r{index}"], duration_s=1.0,
            ))
        trace, stats = ResilientServer(pool(3)).run(
            graph,
            chaos=ChaosSchedule(seed=0, faults=[
                WorkerCrash("w0", at_time=1.05),
            ]),
        )
        assert {r.task for r in trace.records} == set(graph.tasks)
        assert stats.objects_lost >= 1
        assert stats.tasks_relineaged >= 1
        # the producer ran once before the crash and once for lineage
        assert len([
            r for r in trace.records if r.task == "producer"
        ]) >= 2

    def test_crash_during_final_sink_task(self):
        """The worker running the last task of the chain dies
        mid-flight: the sink is re-executed on the survivor."""
        graph = chain_graph(length=2, duration=1.0)
        trace, stats = ResilientServer(pool(2)).run(
            graph, chaos=crashes(("w0", 1.5))
        )
        assert {r.task for r in trace.records} == set(graph.tasks)
        sink_records = [r for r in trace.records if r.task == "t1"]
        # the aborted attempt leaves no record; the retry ran on the
        # survivor after the crash
        assert len(sink_records) == 1
        assert sink_records[0].worker == "w1"
        assert sink_records[0].start > 1.5

    def test_two_workers_crash_at_same_timestamp(self):
        def run_once():
            graph = fan_graph(width=8)
            return ResilientServer(pool(3)).run(
                graph,
                chaos=ChaosSchedule(seed=0, faults=[
                    WorkerCrash("w0", at_time=0.5),
                    WorkerCrash("w1", at_time=0.5),
                ]),
            )

        trace, stats = run_once()
        assert stats.failures == 2
        assert {r.task for r in trace.records} >= {
            f"leaf{index}" for index in range(8)
        }
        assert all(
            r.worker == "w2" for r in trace.records if r.end > 0.5
        )
        crash_times = [
            f.time for f in trace.faults if f.kind == "worker-crash"
        ]
        assert crash_times == [0.5, 0.5]
        # same-timestamp crashes resolve deterministically
        replay, _stats = run_once()
        assert replay.to_json() == trace.to_json()

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_a_task_wider_than_every_worker_is_refused_up_front(
            self, policy, tmp_path):
        """Refused before the first event (the journal holds not even
        a header), not left to drain the simulator (SIM002)."""
        graph = TaskGraph("wide")
        graph.add_task(WorkflowTask("t", outputs=["o"], cpus=4))
        server = ResilientServer(pool(1), policy=make_policy(policy))  # w0, 2 cpus
        with RunJournal(tmp_path) as journal, pytest.raises(
                WorkflowError, match="^task 't' requests 4 cpus but the "
                "largest worker offers 2$") as refused:
            server.run(graph, journal=journal)
        assert [d.code for d in refused.value.diagnostics.items] == ["WF003"]
        assert not journal.path.exists()


def hand_built_run(workers, faults=()):
    """A four-task chain's run, built as ``ResilientServer.run`` builds
    it, whose dispatcher never starts."""
    server, graph = ResilientServer(workers), chain_graph()
    server.policy.prepare(graph)
    return _Run(server, graph, list(faults), None, None)


class TestHandlers:
    """One fault handler at a time, on a hand-built run."""

    @pytest.mark.parametrize("fault, store_kept", [
        (WorkerCrash("w0", at_time=1.0, restart_after=0.5), False),
        (ReconfigFault("w0", at_time=1.0, repair_s=0.5), True),
    ])
    def test_outage_keeps_the_store_only_on_reconfig(self, fault,
                                                      store_kept):
        workers = pool(2)
        run = hand_built_run(workers, [fault])
        run.sim.run()
        assert not run.failed
        assert workers[0].holds("in") is store_kept
        assert run.locations["in"] == ("w0" if store_kept else "w1")
        assert run.stats.objects_lost == (0 if store_kept else 1)

    def test_readmit_skips_a_worker_that_went_down_again(self):
        workers = pool(2)
        victim = workers[0]
        run = hand_built_run(workers)
        run.sim.run_process(run.take_down(victim, lose_store=False))
        first_down = run.incarnations["w0"]
        run.sim.run_process(run.take_down(victim, lose_store=False))
        run.readmissions = 2
        run.sim.run_process(
            run.readmit(victim, "worker-readmit", first_down, fresh=False)
        )
        assert "w0" in run.failed
        assert run.stats.restarts == 0
        run.sim.run_process(run.readmit(
            victim, "worker-readmit", run.incarnations["w0"], fresh=False,
        ))
        assert "w0" not in run.failed
        assert run.stats.restarts == 1

    def test_a_run_leaves_the_server_as_it_found_it(self):
        server = ResilientServer(pool(2))
        before = {name: id(value) for name, value in vars(server).items()}
        server.run(chain_graph(), chaos=crashes(("w0", 1.0)))
        assert {name: id(value)
                for name, value in vars(server).items()} == before
