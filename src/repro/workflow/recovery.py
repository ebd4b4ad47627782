"""The workflow execution engine, with fault tolerance and migration.

Paper §IV: "Tasks are defined in a way that allows runtime migration
of both data and computations" and the runtime can "seamlessly move
the computation between edge nodes and also between edge and cloud
parts". This module provides:

* :class:`RetryPolicy` — configurable retry count, task timeout and
  exponential backoff for re-queued task attempts;
* :class:`ResilientServer` — the one workflow server. It runs a
  :class:`~repro.workflow.graph.TaskGraph` over a pool of
  :class:`~repro.workflow.worker.Worker` instances on the
  discrete-event simulator, staging data objects between workers
  (through the ecosystem topology when one is provided); a fault-free
  run is a run with no :class:`~repro.chaos.schedule.ChaosSchedule`.
  Under one it survives the whole chaos fault vocabulary
  (:mod:`repro.chaos.faults`): worker crashes *and restarts*, link
  degradation/partition, vFPGA reconfiguration failures, stragglers,
  and transient task faults. Running tasks on a dead worker are
  re-queued with backoff, objects whose only copy died are recovered
  through *lineage* (their producer chain is re-executed), external
  inputs are re-fetched from durable storage, and restarted workers
  are re-admitted to the pool. Every fault and every recovery action
  lands in the :class:`~repro.workflow.tracing.ExecutionTrace`.

Every run is traced: the server emits task spans (one lane per
worker), staging-transfer spans, scheduler-decision instants and
ready-queue counters into a simulated-time tracer, and the returned
``ExecutionTrace`` is a view over those events
(:meth:`~repro.workflow.tracing.ExecutionTrace.from_tracer`). When an
enabled tracer is passed in — or installed ambiently via
:func:`repro.obs.observe` — the whole simulated timeline is absorbed
into it as its own process for Chrome-trace export.

The recovery model mirrors Spark/HyperLoom lineage: no task output
is saved aside, everything is recomputable from the graph. During a
vFPGA reconfiguration failure only the role logic is down; the shell
keeps serving the worker's object store (cloudFPGA keeps the network
stack in the static shell region), so the store survives while the
worker is out of the pool.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import count
from typing import Dict, List, Optional, Set

from repro.chaos.faults import (
    ANY_LINK,
    LinkFault,
    ReconfigFault,
    StragglerFault,
    TaskFault,
    WorkerCrash,
)
from repro.chaos.schedule import ChaosSchedule
from repro.errors import ChaosError, PlatformError, WorkflowError
from repro.obs import SimClock, Tracer, current_metrics, current_tracer
from repro.platform.simulator import Simulator
from repro.platform.topology import Ecosystem, LinkOverlay
from repro.workflow.graph import TaskGraph
from repro.workflow.journal import RunJournal, journal_error
from repro.workflow.replay import (
    EXEC_CATEGORY,
    PayloadSkipper,
    ReplayState,
)
from repro.workflow.scheduler import BLevelScheduler, SchedulerPolicy
from repro.workflow.tracing import (
    FAULT_CATEGORY,
    RECOVERY_CATEGORY,
    TASK_CATEGORY,
    ExecutionTrace,
)
from repro.workflow.worker import Worker

#: Tracer categories for the extra (non-ExecutionTrace) detail.
TRANSFER_CATEGORY = "workflow.transfer"
SCHED_CATEGORY = "workflow.sched"
#: Worker-slot request/release instants consumed by repro.sanitize.
RESOURCE_EVENT_CATEGORY = "workflow.resource"


def make_sim_tracer(sim: Simulator, graph_name: str) -> Tracer:
    """A simulated-time tracer for one run, attached to the engine."""
    tracer = Tracer(clock=SimClock(sim), enabled=True,
                    process=f"workflow:{graph_name}")
    sim.tracer = tracer
    return tracer


def begin_journal(
    journal: Optional[RunJournal],
    events: Tracer,
    graph: TaskGraph,
    policy_name: str,
    workers: List[Worker],
    resume: Optional[ReplayState],
) -> Optional[PayloadSkipper]:
    """Server prologue for durable/resumed execution.

    When resuming, the journaled header must describe the same run
    recipe we are about to re-execute — same graph content, policy and
    worker pool — otherwise the deterministic replay would silently
    diverge from what the journal proves happened; that mismatch is a
    hard ``WF009`` error. When journaling, the header is written and
    the journal hooks the simulated-time tracer so every journaled
    transition is durable before execution proceeds.

    Returns the payload skipper for a resumed run (None otherwise).
    """
    recipe = {
        "graph": graph.name,
        "graph_digest": graph.digest(),
        "policy": policy_name,
        "workers": [worker.name for worker in workers],
        "tasks": len(graph.tasks),
    }
    if resume is not None and resume.header is not None:
        for key in ("graph_digest", "policy", "workers"):
            expected = resume.header.get(key)
            if expected != recipe[key]:
                raise journal_error(
                    "WF009",
                    f"resume state was journaled for {key}="
                    f"{expected!r} but this run has {recipe[key]!r}; "
                    f"rebuild the run from its recorded recipe",
                    anchor=graph.name,
                )
    if journal is not None:
        journal.start(recipe)
        journal.attach(events)
    return resume.payload_skipper() if resume is not None else None


def end_journal(journal: Optional[RunJournal],
                trace: ExecutionTrace) -> None:
    """Seal a journaled run: final digest record, tracer detached."""
    if journal is None:
        return
    journal.finish(trace.digest(), makespan=trace.makespan)
    journal.detach()


def publish_run(sim_tracer: Tracer, graph_name: str,
                tracer: Optional[Tracer]) -> None:
    """Absorb a run's simulated timeline into the session tracer."""
    target = tracer if tracer is not None else current_tracer()
    if target.enabled:
        target.absorb(sim_tracer, process=f"workflow:{graph_name}")


#: Default inter-worker staging model when no ecosystem is given.
_DEFAULT_LATENCY_S = 1e-3
_DEFAULT_BANDWIDTH = 1e9  # bytes/second
#: Simulated time to re-fetch a lost workflow input from its source.
_REFETCH_LATENCY_S = 0.05

#: Cost returned to the scheduler for a placement whose staging path is
#: currently unavailable (partition / lineage in flight): finite so
#: policies can still order candidates, large enough to lose every tie.
_UNREACHABLE_COST = 1e9


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/timeout/backoff knobs for re-queued task attempts.

    A task attempt that aborts (its worker failed, an injected task
    fault fired, or staging hit a partition) is retried after an
    exponential backoff ``base_backoff_s * backoff_factor**(n-1)``
    capped at ``max_backoff_s``. After ``max_attempts`` aborted
    attempts of one task the run raises :class:`ChaosError`.
    ``task_timeout_s`` is a straggler watchdog: an attempt whose
    projected wall time exceeds it is abandoned and re-queued, letting
    the scheduler move it to a healthier worker.
    """

    max_attempts: int = 15
    base_backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 2.0
    task_timeout_s: Optional[float] = None

    def backoff_for(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        delay = self.base_backoff_s * (
            self.backoff_factor ** max(0, attempt - 1)
        )
        return min(delay, self.max_backoff_s)


@dataclass
class RecoveryStats:
    """What fault handling did during a run."""

    failures: int = 0
    tasks_requeued: int = 0
    objects_lost: int = 0
    tasks_relineaged: int = 0
    inputs_refetched: int = 0
    restarts: int = 0
    reconfig_faults: int = 0
    stragglers: int = 0
    link_faults: int = 0
    task_faults: int = 0
    retries: int = 0
    backoff_seconds: float = 0.0


class ResilientServer:
    """Executes task graphs over a worker pool, recovering from faults."""

    def __init__(
        self,
        workers: List[Worker],
        ecosystem: Optional[Ecosystem] = None,
        policy: Optional[SchedulerPolicy] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        if not workers:
            raise WorkflowError("server needs at least one worker")
        self.workers = list(workers)
        self._by_name = {worker.name: worker for worker in workers}
        if len(self._by_name) != len(workers):
            raise WorkflowError("worker names must be unique")
        self.ecosystem = ecosystem
        self.policy = policy or BLevelScheduler()
        self.retry = retry or RetryPolicy()
        self._failed: Set[str] = set()
        #: Link faults in force on the default (no-ecosystem) staging
        #: path, under the pair (ANY_LINK, ANY_LINK).
        self._default_overlay = LinkOverlay()

    # ------------------------------------------------------------------

    def _alive(self) -> List[Worker]:
        return [w for w in self.workers if w.name not in self._failed]

    def _worker(self, name: str) -> Worker:
        try:
            return self._by_name[name]
        except KeyError:
            raise WorkflowError(f"unknown worker {name!r}") from None

    def _transfer_seconds(self, source: str, target: str,
                          size_bytes: int) -> float:
        if source == target or size_bytes == 0:
            return 0.0
        if self.ecosystem is not None:
            src_node = self._worker(source).node_name
            dst_node = self._worker(target).node_name
            if src_node == dst_node:
                return 0.0
            return self.ecosystem.transfer_time(
                src_node, dst_node, size_bytes
            )
        if self._default_overlay.is_partitioned(ANY_LINK, ANY_LINK):
            raise PlatformError(
                "default staging path is partitioned"
            )
        factor, latency_add = self._default_overlay.state(
            ANY_LINK, ANY_LINK)
        return _DEFAULT_LATENCY_S + latency_add + size_bytes / (
            _DEFAULT_BANDWIDTH * factor
        )

    # ------------------------------------------------------------------

    def _validate_faults(self, chaos: ChaosSchedule) -> None:
        for fault in chaos.faults:
            if isinstance(fault, (WorkerCrash, ReconfigFault,
                                  StragglerFault)):
                if fault.worker not in self._by_name:
                    raise WorkflowError(
                        f"{fault.kind} names unknown worker "
                        f"{fault.worker!r}"
                    )
            elif isinstance(fault, LinkFault):
                if fault.node_a != ANY_LINK or fault.node_b != ANY_LINK:
                    if self.ecosystem is None:
                        raise WorkflowError(
                            f"link fault targets "
                            f"{fault.node_a!r}<->{fault.node_b!r} but "
                            f"the server has no ecosystem topology"
                        )
                    self.ecosystem.link_between(fault.node_a,
                                                fault.node_b)

    # ------------------------------------------------------------------

    def run(
        self,
        graph: TaskGraph,
        chaos: Optional[ChaosSchedule] = None,
        tracer: Optional[Tracer] = None,
        journal: Optional[RunJournal] = None,
        resume: Optional[ReplayState] = None,
    ) -> tuple:
        """Execute the graph to completion, recovering from faults.

        ``chaos`` is the :class:`ChaosSchedule` to inject (none: a
        fault-free run); ``tracer`` (or the ambient session tracer)
        receives the simulated timeline as a ``workflow:<graph>``
        process. ``journal`` write-ahead logs every payload-invocation
        point, completion, fault and recovery so the run
        survives a process crash; ``resume`` replays a crashed run —
        the deterministic timeline is re-executed and payloads that
        already ran are skipped. Returns (trace, recovery stats). Raises
        :class:`WorkflowError` when every worker dies with no restart
        pending, and :class:`ChaosError` when a task exhausts its
        retry budget.
        """
        graph.validate()
        self.policy.prepare(graph)
        self._failed = set()
        self._default_overlay = LinkOverlay()
        retry = self.retry
        stats = RecoveryStats()
        metrics = current_metrics()
        tasks_executed = metrics.counter(
            "workflow.tasks_executed",
            "tasks completed by the workflow engine",
        )
        faults_observed = metrics.counter(
            "workflow.faults", "injected faults observed",
        )
        recoveries_taken = metrics.counter(
            "workflow.recoveries", "recovery actions taken",
        )

        if chaos is not None:
            self._validate_faults(chaos)
        all_faults = chaos.faults if chaos is not None else []
        task_fault_names = {
            fault.task for fault in all_faults
            if isinstance(fault, TaskFault)
        }
        for name in sorted(task_fault_names):
            if name not in graph.tasks:
                raise WorkflowError(
                    f"task-fault names unknown task {name!r}"
                )
        fault_budget: Dict[str, int] = {}
        for fault in all_faults:
            if isinstance(fault, TaskFault):
                fault_budget[fault.task] = (
                    fault_budget.get(fault.task, 0) + fault.failures
                )

        sim = Simulator()
        events = make_sim_tracer(sim, graph.name)
        skipper = begin_journal(
            journal, events, graph, self.policy.name, self.workers,
            resume,
        )

        def record_fault(kind: str, target: str, detail: str = ""
                         ) -> None:
            events.instant(
                kind, category=FAULT_CATEGORY, track="faults",
                kind=kind, target=target, time=sim.now, detail=detail,
            )
            faults_observed.inc(kind=kind)

        def record_recovery(action: str, target: str, detail: str = ""
                            ) -> None:
            events.instant(
                action, category=RECOVERY_CATEGORY, track="recovery",
                action=action, target=target, time=sim.now,
                detail=detail,
            )
            recoveries_taken.inc(action=action)

        def resource_event(op: str, worker: Worker, units: int) -> None:
            events.instant(
                f"{op}:{worker.name}",
                category=RESOURCE_EVENT_CATEGORY, track=worker.name,
                op=op, resource=worker.name, units=units,
                capacity=worker.cpus,
            )

        locations: Dict[str, str] = {}
        homes: Dict[str, str] = {}
        for obj in graph.external_inputs():
            # locality names a worker, else a node, else the first worker
            worker = self._by_name.get(obj.locality) or next(
                (w for w in self.workers if w.node_name == obj.locality),
                self.workers[0],
            )
            locations[obj.name] = worker.name
            homes[obj.name] = worker.name
            worker.store.add(obj.name)

        finished: Set[str] = set()
        running: Dict[str, Worker] = {}
        backing_off: Set[str] = set()
        #: Unfinished dependencies per task; moves only where
        #: ``finished`` moves (a finish, a lineage invalidation).
        unmet: Dict[str, int] = {
            name: len(graph.dependencies(name)) for name in graph.tasks
        }
        #: The ready queue in dispatch order: the names ``select``
        #: walks and, beside them, their (policy priority, arrival
        #: sequence) keys. ``queued`` keeps every queued task's key,
        #: also while a dependency invalidated under the task holds it
        #: out of the order: it returns to the place it had, as if it
        #: had been passed over at every launch in between.
        ready: List[str] = []
        order: List[tuple] = []
        queued: Dict[str, tuple] = {}
        arrivals = count()
        ready_at: Dict[str, float] = {}
        attempts: Dict[str, int] = {}
        incarnations: Dict[str, int] = {
            worker.name: 0 for worker in self.workers
        }
        pending = {"readmissions": 0}
        deferred_refetch: Set[str] = set()
        wake = {"event": sim.event()}

        def place(task_name: str) -> None:
            """Put a queued task where its key says in the order."""
            at = bisect_left(order, queued[task_name])
            order.insert(at, queued[task_name])
            ready.insert(at, task_name)

        def displace(task_name: str) -> None:
            """Take a queued task out of the order (its key stays)."""
            at = bisect_left(order, queued[task_name])
            del order[at], ready[at]

        def mark_ready(task_name: str) -> None:
            if (
                task_name not in queued
                and task_name not in running
                and task_name not in finished
                and task_name not in backing_off
            ):
                queued[task_name] = (
                    self.policy.priority(task_name), next(arrivals)
                )
                place(task_name)
                ready_at[task_name] = sim.now

        for task_name in graph.topological_order():
            if not unmet[task_name]:
                mark_ready(task_name)

        def staged_objects(task) -> List[str]:
            return list(task.inputs) + list(task.updates)

        def transfer_cost(task_name: str, worker: Worker) -> float:
            total = 0.0
            for input_name in staged_objects(graph.tasks[task_name]):
                if worker.holds(input_name):
                    continue
                source = locations.get(input_name)
                if source is None:
                    return _UNREACHABLE_COST
                try:
                    total += self._transfer_seconds(
                        source, worker.name,
                        graph.objects[input_name].size_bytes,
                    )
                except PlatformError:
                    return _UNREACHABLE_COST
            return total

        def poke() -> None:
            if not wake["event"].triggered:
                wake["event"].trigger()

        def recheck_ready() -> None:
            for task_name in graph.tasks:
                if not unmet[task_name]:
                    mark_ready(task_name)

        # -- task attempts ---------------------------------------------

        def requeue(task_name: str, worker: Worker, alive: bool,
                    reason: str):
            """Abort the current attempt and retry after backoff."""
            task = graph.tasks[task_name]
            running.pop(task_name, None)
            if alive:
                worker.release(task.cpus)
                resource_event("release", worker, task.cpus)
            stats.tasks_requeued += 1
            attempts[task_name] = attempts.get(task_name, 0) + 1
            attempt = attempts[task_name]
            if attempt >= retry.max_attempts:
                raise ChaosError(
                    f"task {task_name!r} aborted {attempt} times "
                    f"(last: {reason}); retry budget exhausted"
                )
            delay = retry.backoff_for(attempt)
            stats.backoff_seconds += delay
            backing_off.add(task_name)
            record_recovery(
                "backoff", task_name,
                f"attempt {attempt} aborted ({reason}); "
                f"retry in {delay:.3f}s",
            )
            if delay:
                yield sim.timeout(delay)
            backing_off.discard(task_name)
            stats.retries += 1
            record_recovery(
                "retry", task_name, f"attempt {attempt + 1}"
            )
            if not unmet[task_name]:
                mark_ready(task_name)
            poke()

        def run_task(task_name: str, worker: Worker):
            epoch = incarnations[worker.name]
            task = graph.tasks[task_name]
            start_ready = ready_at.get(task_name, sim.now)
            start = sim.now
            staging = 0.0
            moved = 0

            def worker_ok() -> bool:
                return (
                    worker.name not in self._failed
                    and incarnations[worker.name] == epoch
                )

            for input_name in staged_objects(task):
                if worker.holds(input_name):
                    continue
                source = locations.get(input_name)
                if source is None:
                    yield from requeue(
                        task_name, worker, worker_ok(),
                        f"input {input_name!r} unavailable",
                    )
                    return
                try:
                    seconds = self._transfer_seconds(
                        source, worker.name,
                        graph.objects[input_name].size_bytes,
                    )
                except PlatformError as exc:
                    yield from requeue(
                        task_name, worker, worker_ok(), str(exc)
                    )
                    return
                if seconds:
                    stage_start = sim.now
                    yield sim.timeout(seconds)
                    events.complete(
                        f"stage:{input_name}", stage_start, sim.now,
                        category=TRANSFER_CATEGORY, track=worker.name,
                        source=source,
                        bytes=graph.objects[input_name].size_bytes,
                    )
                if not worker_ok():
                    yield from requeue(
                        task_name, worker, False,
                        f"worker {worker.name!r} failed during staging",
                    )
                    return
                staging += seconds
                moved += graph.objects[input_name].size_bytes
                worker.store.add(input_name)

            duration = worker.execution_time(task.duration_s)
            if fault_budget.get(task_name, 0) > 0:
                fault_budget[task_name] -= 1
                # the fault bites mid-execution: half the work is lost
                yield sim.timeout(duration * 0.5)
                stats.task_faults += 1
                record_fault(
                    "task-fault", task_name,
                    f"transient fault on {worker.name}",
                )
                yield from requeue(
                    task_name, worker, worker_ok(), "transient task fault"
                )
                return
            if (
                retry.task_timeout_s is not None
                and duration > retry.task_timeout_s
            ):
                yield sim.timeout(retry.task_timeout_s)
                yield from requeue(
                    task_name, worker, worker_ok(),
                    f"timeout: projected {duration:.3f}s > "
                    f"{retry.task_timeout_s:.3f}s",
                )
                return
            if journal is not None:
                events.instant(
                    "exec", category=EXEC_CATEGORY, track=worker.name,
                    task=task_name, worker=worker.name,
                )
            already_ran = (
                skipper.take(task_name) if skipper is not None else False
            )
            if task.payload is not None and not already_ran:
                task.payload()
            yield sim.timeout(duration)
            if not worker_ok():
                yield from requeue(
                    task_name, worker, False,
                    f"worker {worker.name!r} failed mid-task",
                )
                return
            running.pop(task_name, None)
            worker.busy_seconds += duration * task.cpus
            worker.tasks_executed += 1
            worker.release(task.cpus)
            resource_event("release", worker, task.cpus)
            for output_name in list(task.outputs) + list(task.updates):
                locations[output_name] = worker.name
                worker.store.add(output_name)
            finished.add(task_name)
            events.complete(
                task_name, start, sim.now, category=TASK_CATEGORY,
                track=worker.name, task=task_name, worker=worker.name,
                ready_at=start_ready, start=start, end=sim.now,
                transfer_seconds=staging, bytes_moved=moved,
                reads=staged_objects(task),
                writes=list(task.outputs) + list(task.updates),
            )
            tasks_executed.inc(worker=worker.name)
            for consumer in graph.consumers(task_name):
                unmet[consumer] -= 1
                if unmet[consumer]:
                    continue
                if consumer in queued:
                    place(consumer)
                else:
                    mark_ready(consumer)
            poke()

        # -- object recovery -------------------------------------------

        def invalidate(producer: str, seen: Set[str]) -> None:
            """Lineage: re-run the producer of a lost object and,
            depth first, every task downstream of it.

            A task is unfinished (its ``lineage`` record emitted)
            before its consumers are visited and offered to the queue
            after them. The walk keeps its own stack: the depth of a
            graph must not meet the interpreter's recursion limit.
            """
            path: List[str] = []
            pending = [iter((producer,))]  # then path's consumers
            while pending:
                for task_name in pending[-1]:
                    if task_name in seen:
                        continue
                    seen.add(task_name)
                    consumers = graph.consumers(task_name)
                    if task_name in finished:
                        finished.discard(task_name)
                        for consumer in consumers:
                            unmet[consumer] += 1
                            if unmet[consumer] == 1 and consumer in queued:
                                displace(consumer)
                        stats.tasks_relineaged += 1
                        record_recovery(
                            "lineage", task_name,
                            "output lost; re-executing producer",
                        )
                    for output_name in graph.tasks[task_name].outputs:
                        locations.pop(output_name, None)
                        for worker in self.workers:
                            worker.store.discard(output_name)
                    path.append(task_name)
                    pending.append(iter(consumers))
                    break
                else:
                    pending.pop()
                    if path:
                        walked = path.pop()
                        if not unmet[walked]:
                            mark_ready(walked)

        def refetch(object_name: str):
            """Re-fetch a durable external input, or defer if no
            worker is alive to receive it."""
            home = homes[object_name]
            target = next(
                (w for w in self._alive() if w.name == home), None,
            ) or (self._alive()[0] if self._alive() else None)
            if target is None:
                deferred_refetch.add(object_name)
                return
            yield sim.timeout(_REFETCH_LATENCY_S)
            if target.name in self._failed:
                deferred_refetch.add(object_name)
                return
            target.store.add(object_name)
            locations[object_name] = target.name
            stats.inputs_refetched += 1
            record_recovery(
                "refetch", object_name, f"to {target.name}"
            )

        def take_down(victim: Worker, lose_store: bool):
            """Shared crash/reconfig path: remove from pool, free
            slots, and (for crashes) recover the lost objects."""
            self._failed.add(victim.name)
            incarnations[victim.name] += 1
            resource_event("reset", victim, 0)
            if not lose_store:
                victim.busy_cpus = 0
                return
            lost_objects = set(victim.store)
            victim.reset()
            seen: Set[str] = set()
            for object_name in sorted(lost_objects):
                survivor = next(
                    (w for w in self._alive()
                     if w.holds(object_name)), None,
                )
                if survivor is not None:
                    locations[object_name] = survivor.name
                    continue
                stats.objects_lost += 1
                producer = graph.objects[object_name].producer
                if producer is None:
                    locations.pop(object_name, None)
                    yield from refetch(object_name)
                else:
                    invalidate(producer, seen)

        def readmit(victim: Worker, action: str, down_incarnation: int,
                    fresh: bool):
            """Return a worker to the pool after restart/repair."""
            pending["readmissions"] -= 1
            if (
                victim.name in self._failed
                and incarnations[victim.name] == down_incarnation
            ):
                self._failed.discard(victim.name)
                if fresh:
                    victim.reset()
                stats.restarts += 1
                record_recovery(action, victim.name)
                for object_name in sorted(deferred_refetch):
                    deferred_refetch.discard(object_name)
                    yield from refetch(object_name)
            recheck_ready()
            poke()

        # -- fault application processes -------------------------------

        def apply_crash(fault: WorkerCrash):
            yield sim.timeout(fault.at_time)
            victim = self._worker(fault.worker)
            detail = (
                "permanent" if fault.restart_after is None
                else f"restart in {fault.restart_after:.3f}s"
            )
            record_fault("worker-crash", victim.name, detail)
            stats.failures += 1
            yield from take_down(victim, lose_store=True)
            recheck_ready()
            poke()
            if fault.restart_after is not None:
                down = incarnations[victim.name]
                pending["readmissions"] += 1
                yield sim.timeout(fault.restart_after)
                yield from readmit(
                    victim, "worker-restart", down, fresh=True
                )

        def apply_reconfig(fault: ReconfigFault):
            yield sim.timeout(fault.at_time)
            victim = self._worker(fault.worker)
            record_fault(
                "reconfig-failure", victim.name,
                f"repair in {fault.repair_s:.3f}s",
            )
            stats.reconfig_faults += 1
            yield from take_down(victim, lose_store=False)
            recheck_ready()
            poke()
            down = incarnations[victim.name]
            pending["readmissions"] += 1
            yield sim.timeout(fault.repair_s)
            yield from readmit(
                victim, "worker-readmit", down, fresh=False
            )

        def apply_straggler(fault: StragglerFault):
            yield sim.timeout(fault.at_time)
            victim = self._worker(fault.worker)
            record_fault(
                "straggler", victim.name,
                f"{fault.slowdown:.2f}x for {fault.duration_s:.3f}s",
            )
            stats.stragglers += 1
            epoch = incarnations[victim.name]
            victim.slowdown = max(victim.slowdown, fault.slowdown)
            yield sim.timeout(fault.duration_s)
            if incarnations[victim.name] == epoch:
                victim.slowdown = 1.0
            record_recovery("straggler-clear", victim.name)
            poke()

        def apply_link(fault: LinkFault):
            yield sim.timeout(fault.at_time)
            detail = (
                "severed" if fault.partition
                else f"bandwidth x{fault.bandwidth_factor:.3f}, "
                     f"+{fault.latency_add_s * 1e3:.1f}ms"
            )
            record_fault(fault.kind, fault.target, detail)
            stats.link_faults += 1
            overlay = (
                self._default_overlay if fault.node_a == ANY_LINK
                else self.ecosystem.overlay
            )
            degradation = None if fault.partition else (
                fault.bandwidth_factor, fault.latency_add_s)
            overlay.add(fault.node_a, fault.node_b, degradation)
            yield sim.timeout(fault.duration_s)
            overlay.remove(fault.node_a, fault.node_b, degradation)
            record_recovery("link-heal", fault.target)
            poke()

        appliers = {
            WorkerCrash: apply_crash,
            ReconfigFault: apply_reconfig,
            StragglerFault: apply_straggler,
            LinkFault: apply_link,
        }
        for fault in all_faults:
            applier = appliers.get(type(fault))
            if applier is not None:
                sim.process(
                    applier(fault), name=f"fault:{fault.kind}"
                )

        # -- dispatch loop ---------------------------------------------

        def dispatcher():
            while len(finished) < len(graph.tasks):
                if not self._alive() and pending["readmissions"] == 0:
                    raise WorkflowError(
                        "all workers failed; workflow cannot complete"
                    )
                launched = True
                while launched:
                    choice = self.policy.select(
                        ready, self._alive(), graph, locations,
                        transfer_cost,
                    ) if ready else None
                    if choice is None:
                        launched = False
                    else:
                        task_name, worker = choice
                        displace(task_name)
                        del queued[task_name]
                        events.instant(
                            "dispatch", category=SCHED_CATEGORY,
                            track="scheduler", task=task_name,
                            worker=worker.name,
                        )
                        events.counter(
                            "ready_tasks", float(len(queued)),
                            category=SCHED_CATEGORY, track="scheduler",
                        )
                        worker.acquire(graph.tasks[task_name].cpus)
                        resource_event(
                            "request", worker,
                            graph.tasks[task_name].cpus,
                        )
                        running[task_name] = worker
                        sim.process(
                            run_task(task_name, worker),
                            name=f"task:{task_name}",
                        )
                if len(finished) >= len(graph.tasks):
                    break
                wake["event"] = sim.event()
                yield wake["event"]
            return None

        sim.run_process(dispatcher(), name="dispatcher")
        trace = ExecutionTrace.from_tracer(
            events, graph_name=graph.name,
            policy=f"{self.policy.name}+recovery",
        )
        metrics.counter(
            "workflow.bytes_moved", "bytes staged between workers",
        ).inc(trace.bytes_moved)
        metrics.counter(
            "workflow.retries", "task attempts retried after a fault",
        ).inc(stats.retries)
        end_journal(journal, trace)
        publish_run(events, graph.name, tracer)
        return trace, stats
