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
``tests/chaos/test_invariants.py`` (whose traces, recorded from the
engine that sorted and scanned per launch, are pinned in
``tests/goldens/chaos_grid.jsonl``), and on one schedule built to lose a
mid-graph object while its consumer is queued.
"""

import pytest

from repro.chaos import ChaosSchedule, WorkerCrash, random_task_graph
from repro.obs import Tracer
from repro.workflow import recovery
from repro.workflow.graph import TaskGraph, WorkflowTask
from repro.workflow.recovery import SCHED_CATEGORY, ResilientServer
from repro.workflow.scheduler import SchedulerPolicy, make_policy
from repro.workflow.tracing import RECOVERY_CATEGORY, TASK_CATEGORY

from tests import goldens
from tests.chaos.conftest import FAULT_SEEDS, GRAPH_SEEDS, make_pool, seeded_chaos

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


def run_checked(graph, workers, policy_name, chaos=None):
    """Run under a :class:`CheckedPolicy`, published to an enabled
    tracer (a run records its dispatch instants only for one);
    returns (policy, trace)."""
    policy = CheckedPolicy(make_policy(policy_name))
    make_sim_tracer = recovery.make_sim_tracer

    def capturing(sim, graph_name):
        policy.tracer = make_sim_tracer(sim, graph_name)
        return policy.tracer

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recovery, "make_sim_tracer", capturing)
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
    def test_ready_is_priority_then_arrival(self, policy_name,
                                            graph_seed):
        graph = random_task_graph(graph_seed, num_tasks=24)
        policy, trace = run_checked(graph, make_pool(2), policy_name)
        assert not policy.held
        assert len(trace.records) == len(graph.tasks)


#: The chaos grid, ``policy/graph seed/fault seed``; its traces were
#: recorded from the engine that sorted the ready list and re-read every
#: ready task's dependencies at each launch.
CHAOS_GRID = [f"{policy}/{graph_seed}/{fault_seed}"
              for policy in POLICIES for graph_seed in GRAPH_SEEDS
              for fault_seed in FAULT_SEEDS]


@goldens.suite("chaos_grid", CHAOS_GRID)
def checked_chaos_trace(key):
    """The trace of one grid cell, run under the contract checks."""
    policy_name, graph_seed, fault_seed = key.split("/")
    graph, pool, schedule = seeded_chaos(int(graph_seed), int(fault_seed))
    _policy, trace = run_checked(graph, pool, policy_name, chaos=schedule)
    return trace.to_dict()


@pytest.mark.parametrize("key", CHAOS_GRID)
def test_contracts_hold_and_the_trace_is_pinned(key):
    goldens.check("chaos_grid", key)


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
    def test_queued_consumer_is_held_not_launched(self):
        graph, workers, schedule = lost_under_a_queued_consumer()
        policy, trace = run_checked(
            graph, workers, "b-level", chaos=schedule
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
