"""Property suite: chaos invariants over seeded (graph, fault) pairs.

For every combination of graph seed and fault seed the resilient
server must uphold:

* **liveness** — every task eventually completes;
* **lineage** — each completed task started only after all of its
  producers had a completed record (so no task consumed an object
  whose lineage was broken);
* **monotonic time** — records, faults and recoveries are logged in
  non-decreasing simulated time and every interval is well-formed;
* **accounting** — every fault in the schedule shows up in the trace;
* **replayability** — the same seed pair yields a byte-identical
  serialized trace.
"""

import pytest

from repro.chaos import TaskFault, random_task_graph
from repro.errors import ChaosError
from repro.workflow.recovery import ResilientServer, RetryPolicy

from tests.chaos.conftest import FAULT_SEEDS, GRAPH_SEEDS, make_pool, seeded_chaos


def run_seed_pair(graph_seed: int, fault_seed: int):
    graph, pool, schedule = seeded_chaos(graph_seed, fault_seed)
    trace, stats = ResilientServer(pool).run(graph, chaos=schedule)
    return graph, schedule, trace, stats


@pytest.mark.parametrize("graph_seed", GRAPH_SEEDS)
@pytest.mark.parametrize("fault_seed", FAULT_SEEDS)
class TestChaosInvariants:
    def test_every_task_completes(self, graph_seed, fault_seed):
        graph, _schedule, trace, _stats = run_seed_pair(
            graph_seed, fault_seed
        )
        assert {r.task for r in trace.records} == set(graph.tasks)

    def test_lineage_respected(self, graph_seed, fault_seed):
        """No completed task started before all its producers had
        completed — i.e. no object was consumed with broken lineage."""
        graph, _schedule, trace, _stats = run_seed_pair(
            graph_seed, fault_seed
        )
        ends = {}
        for record in trace.records:
            ends.setdefault(record.task, []).append(record.end)
        for record in trace.records:
            for dependency in graph.dependencies(record.task):
                assert any(
                    end <= record.start + 1e-9
                    for end in ends[dependency]
                ), (
                    f"{record.task} started at {record.start} before "
                    f"producer {dependency} ever finished"
                )

    def test_time_is_monotonic(self, graph_seed, fault_seed):
        _graph, _schedule, trace, _stats = run_seed_pair(
            graph_seed, fault_seed
        )
        for record in trace.records:
            assert 0.0 <= record.ready_at <= record.start <= record.end
        for series in (trace.records, trace.faults, trace.recoveries):
            times = [
                getattr(item, "end", None) or item.time
                for item in series
            ] if series is trace.records else [
                item.time for item in series
            ]
            assert times == sorted(times)

    def test_trace_accounts_for_every_fault(self, graph_seed,
                                            fault_seed):
        _graph, schedule, trace, _stats = run_seed_pair(
            graph_seed, fault_seed
        )
        observed = trace.faults_by_kind()
        scheduled = schedule.counts_by_kind()
        for kind, count in scheduled.items():
            if kind == "task-fault":
                continue
            assert observed.get(kind, 0) == count
        expected_task_events = sum(
            f.failures for f in schedule.task_faults()
        )
        assert observed.get("task-fault", 0) == expected_task_events

    def test_replay_is_byte_identical(self, graph_seed, fault_seed):
        _g1, _s1, first, _ = run_seed_pair(graph_seed, fault_seed)
        _g2, _s2, second, _ = run_seed_pair(graph_seed, fault_seed)
        assert first.to_json() == second.to_json()
        assert first.digest() == second.digest()


class TestAcrossPolicies:
    @pytest.mark.parametrize("policy", ["fifo", "b-level", "locality"])
    def test_invariants_hold_for_every_policy(self, policy):
        from repro.workflow.scheduler import make_policy

        graph, pool, schedule = seeded_chaos(11, 13)
        trace, _stats = ResilientServer(
            pool, policy=make_policy(policy)
        ).run(graph, chaos=schedule)
        assert {r.task for r in trace.records} == set(graph.tasks)


class TestRetryExhaustion:
    def test_budget_exhaustion_raises_chaos_error(self):
        from repro.chaos.schedule import ChaosSchedule

        graph = random_task_graph(0, num_tasks=3)
        pool = make_pool(2)
        hopeless = ChaosSchedule(seed=0, faults=[
            TaskFault(task="t0", failures=50),
        ])
        server = ResilientServer(
            pool, retry=RetryPolicy(max_attempts=4)
        )
        with pytest.raises(ChaosError, match="retry budget"):
            server.run(graph, chaos=hopeless)
