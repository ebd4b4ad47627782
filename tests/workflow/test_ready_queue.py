"""The ready queue's ordering contract and the dependency counters.

The engine keeps its ready queue in dispatch order and knows a task's
readiness from a counter instead of re-deriving either per launch
(:mod:`repro.workflow.scheduler`, "Tie-break contract"). Two checks,
both against a model kept *outside* the engine:

* at every ``select`` call the ``ready`` list handed to the policy is
  the stable sort, by the policy's priority, of the queued tasks in
  arrival order whose dependencies are all finished — where arrival is
  the moment the engine asks the policy for the task's priority, a
  queued task is never asked about again, and "finished" is replayed
  from the run's simulated-time tracer (:class:`CheckedPolicy`);
* from the tracer's events alone, every dispatch of a task follows a
  completed span of each of its dependencies that no later ``lineage``
  record has revoked (:func:`replay`).

Run fault-free, over the 5 x 4 chaos grid of
``tests/chaos/test_invariants.py`` (whose trace digests, taken from the
engine that sorted and scanned per launch, are pinned here), and on one
schedule built to lose a mid-graph object while its consumer is queued.
"""

import pytest

from repro.chaos import (
    ChaosSchedule,
    WorkerCrash,
    generate_schedule,
    random_task_graph,
)
from repro.obs import Tracer
from repro.workflow import recovery
from repro.workflow.graph import TaskGraph, WorkflowTask
from repro.workflow.recovery import SCHED_CATEGORY, ResilientServer
from repro.workflow.scheduler import SchedulerPolicy, make_policy
from repro.workflow.tracing import RECOVERY_CATEGORY, TASK_CATEGORY

from tests.chaos.conftest import CONFIG, FAULT_SEEDS, GRAPH_SEEDS, make_pool

POLICIES = ("fifo", "b-level", "locality")


def replay(graph, events):
    """The tasks finished after the given tracer events, and how many
    dispatches they hold: a completed task span finishes its task, a
    ``lineage`` record revokes it, and every dispatch on the way must
    find each dependency of its task finished."""
    finished, dispatches = set(), 0
    for event in events:
        if event.phase == "X" and event.category == TASK_CATEGORY:
            finished.add(event.args["task"])
        elif (event.category == RECOVERY_CATEGORY
              and event.args["action"] == "lineage"):
            finished.discard(event.args["target"])
        elif (event.category == SCHED_CATEGORY
              and event.name == "dispatch"):
            task = event.args["task"]
            missing = [dependency
                       for dependency in graph.dependencies(task)
                       if dependency not in finished]
            assert not missing, (task, missing)
            dispatches += 1
    return finished, dispatches


class CheckedPolicy(SchedulerPolicy):
    """A policy behind a check of what the engine hands it."""

    def __init__(self, inner: SchedulerPolicy):
        super().__init__()
        self.inner = inner
        self.name = inner.name
        #: queued tasks in arrival order
        self.arrived = []
        #: the run's simulated-time tracer (set by :func:`run_checked`)
        self.tracer = None
        self.select_calls = 0
        #: tasks seen queued but held back for a revoked dependency
        self.held = set()

    def prepare(self, graph):
        self.inner.prepare(graph)

    def priority(self, task_name):
        assert task_name not in self.arrived, (
            f"{task_name!r} was queued again while queued"
        )
        self.arrived.append(task_name)
        return self.inner.priority(task_name)

    def select(self, ready, workers, graph, locations, transfer_cost):
        finished, _dispatches = replay(graph, self.tracer.events)
        launchable = [
            task for task in self.arrived
            if all(dependency in finished
                   for dependency in graph.dependencies(task))
        ]
        assert list(ready) == sorted(launchable, key=self.inner.priority)
        self.held.update(set(self.arrived) - set(launchable))
        self.select_calls += 1
        choice = self.inner.select(
            ready, workers, graph, locations, transfer_cost
        )
        if choice is not None:
            self.arrived.remove(choice[0])
        return choice


def run_checked(monkeypatch, graph, workers, policy_name, chaos=None):
    """Run under a :class:`CheckedPolicy`, published to an enabled
    tracer (a run records its dispatch instants only for one);
    returns (policy, trace)."""
    policy = CheckedPolicy(make_policy(policy_name))
    make_sim_tracer = recovery.make_sim_tracer

    def capturing(sim, graph_name):
        policy.tracer = make_sim_tracer(sim, graph_name)
        return policy.tracer

    monkeypatch.setattr(recovery, "make_sim_tracer", capturing)
    trace, _stats = ResilientServer(workers, policy=policy).run(
        graph, chaos=chaos, tracer=Tracer()
    )
    assert policy.select_calls >= len(graph.tasks)
    _finished, dispatches = replay(graph, policy.tracer.events)
    assert dispatches >= len(graph.tasks)
    return policy, trace


@pytest.mark.parametrize("policy_name", POLICIES)
@pytest.mark.parametrize("graph_seed", GRAPH_SEEDS)
class TestFaultFree:
    def test_ready_is_priority_then_arrival(self, monkeypatch,
                                            policy_name, graph_seed):
        graph = random_task_graph(graph_seed, num_tasks=24)
        policy, trace = run_checked(
            monkeypatch, graph, make_pool(2), policy_name
        )
        assert not policy.held
        assert len(trace.records) == len(graph.tasks)


#: Trace digests of the chaos grid per policy, graph seed major, taken
#: from the engine that sorted the ready list and re-read every ready
#: task's dependencies at each launch.
CHAOS_GRID_DIGESTS = {
    "fifo": (
        "a1bdf3298c7595b0 04b28b1689950536 67775557fd84d79c "
        "4d53b539de1947fa ec5068573330f552 2253d405c4e6b900 "
        "76463b821a04c7d6 23cfaa5a30579628 dca2d95c5fd91459 "
        "9bb32e29d51046a9 13f0e6c210f53326 c1fd6c5536bd6acf "
        "4a710827de6d9083 61169d7c4cf090f5 51d22b8876c65171 "
        "270d1168c7576d52 460448d84e96984d 7794e8d918f24989 "
        "c3cedebcd79fdf35 740113d1a98d4a0e"
    ),
    "b-level": (
        "efcbc749fa2c639a 70138b31508a69e5 7292571860b49223 "
        "ac42f91fd1846e74 e998b7b5786e5cfc 91b0ac6dfa399a19 "
        "1035eacf61b9b45d 5e5a4b578435e1b3 b0c44d6b85e3ba8f "
        "71b86b7b7c93ab40 1fb88b1d38d0c5ae be775277432f0bcf "
        "71fcd6f137351cc9 06b355980f031dab 0e1290bcc070c399 "
        "e26afef800265034 50172071d3072360 e2906b27e8351880 "
        "642f0994198dd6e1 08eb6a1f4275a5d0"
    ),
    "locality": (
        "927804d95e8556db 13ce712e378bd831 01f4500ce1c51b3c "
        "b0fbab773dd97ccf 697ad7eb66f7eec8 f0f80efc2c5d12c9 "
        "9d856db869faf2e6 a77e9ae686aa1c7c db85016f573cc0a1 "
        "c0fcf7671e0ea8d3 4c122df589bee743 acfab40898acc733 "
        "16d8379febefeaf1 f952cd55e268f7aa 598ad34a4d8b8a5d "
        "a3d8957322bd94bd 39c77ede6c641733 3a4f6cc5e8e6cad6 "
        "de2435f7b8af777b 1accbfa083826812"
    ),
}


@pytest.mark.parametrize("policy_name", POLICIES)
@pytest.mark.parametrize("graph_seed", GRAPH_SEEDS)
@pytest.mark.parametrize("fault_seed", FAULT_SEEDS)
class TestChaosGrid:
    def test_contracts_hold_and_the_trace_is_pinned(
            self, monkeypatch, policy_name, graph_seed, fault_seed):
        graph = random_task_graph(graph_seed, num_tasks=10)
        pool = make_pool(3)
        schedule = generate_schedule(
            graph, [worker.name for worker in pool], fault_seed, CONFIG
        )
        _policy, trace = run_checked(
            monkeypatch, graph, pool, policy_name, chaos=schedule
        )
        pinned = CHAOS_GRID_DIGESTS[policy_name].split()
        assert trace.digest() == pinned[
            graph_seed * len(FAULT_SEEDS) + fault_seed
        ]


def lost_under_a_queued_consumer():
    """``a -> b -> {c, d}`` beside a long task, on two 1-cpu workers.

    ``long`` takes w0 for the whole run, ``a`` and ``b`` run on w1; at
    t=2 ``b`` finishes and both consumers arrive, the heavier ``d``
    takes w1 and ``c`` waits in the queue. At t=3 w1 crashes with the
    only copies of ``a``'s and ``b``'s outputs: both re-run after the
    restart, and ``c`` — still queued, its dependency now unfinished —
    must sit the launches in between out.
    """
    graph = TaskGraph("lost-under-queued")
    graph.add_task(WorkflowTask("long", outputs=["ol"], duration_s=20.0))
    graph.add_task(WorkflowTask("a", outputs=["oa"], duration_s=1.0))
    graph.add_task(WorkflowTask(
        "b", inputs=["oa"], outputs=["ob"], duration_s=1.0,
    ))
    graph.add_task(WorkflowTask(
        "c", inputs=["ob"], outputs=["oc"], duration_s=1.0,
    ))
    graph.add_task(WorkflowTask(
        "d", inputs=["ob"], outputs=["od"], duration_s=5.0,
    ))
    schedule = ChaosSchedule(0, [
        WorkerCrash("w1", at_time=3.0, restart_after=0.5),
    ])
    return graph, make_pool(2, cpus=1), schedule


class TestObjectLostUnderAQueuedConsumer:
    def test_queued_consumer_is_held_not_launched(self, monkeypatch):
        graph, workers, schedule = lost_under_a_queued_consumer()
        policy, trace = run_checked(
            monkeypatch, graph, workers, "b-level", chaos=schedule
        )
        runs = {}
        for record in trace.records:
            runs.setdefault(record.task, []).append(record)
        assert [len(runs[task]) for task in "abcd"] == [2, 2, 1, 1]
        assert policy.held == {"c"}
        # queued at b's first finish and never again: it kept its
        # place through the loss, and ran only after b's second finish
        assert runs["c"][0].ready_at == runs["b"][0].end == 2.0
        assert runs["c"][0].start >= runs["b"][1].end > 3.5
