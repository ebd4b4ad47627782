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

The server holds configuration only (workers, ecosystem, policy,
retry). Each :meth:`ResilientServer.run` builds a private ``_Run``:
the run's state — ready queue, dependency counters, object locations,
worker incarnations, fault budgets, the simulator and its tracer — is
its attributes, and every engine step and fault handler (``run_task``,
``requeue``, ``invalidate``, ``refetch``, ``take_down``, ``readmit``,
``outage``, ``dispatcher``, …) is a method that can be driven alone on
a hand-built run. The fault vocabulary is one table, ``_FAULT_KINDS``,
keyed by the :mod:`repro.chaos.faults` class: each row is the check
that rejects a fault naming a target the run lacks, and the applier
that arms it on a run. Crashes and reconfiguration failures share one
handler (``_Run.outage``) that their two rows parameterise; adding a
fault class is adding one row.

Every run is traced: the server emits task spans (one lane per
worker), faults and recovery actions into a simulated-time tracer, and
the returned ``ExecutionTrace`` is a view over those events
(:meth:`~repro.workflow.tracing.ExecutionTrace.from_tracer`). When an
enabled tracer is passed in — or installed ambiently via
:func:`repro.obs.observe` — the run also emits staging-transfer spans,
scheduler-decision instants, ready-queue counters and worker-slot
instants, and the whole simulated timeline is absorbed into that
tracer as its own process for Chrome-trace export. Without one
nothing reads those events, so the run does not record them.

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
from typing import Callable, Dict, List, NamedTuple, Optional, Set

from repro.chaos.faults import (
    ANY_LINK,
    LinkFault,
    ReconfigFault,
    StragglerFault,
    TaskFault,
    WorkerCrash,
)
from repro.chaos.schedule import ChaosSchedule
from repro.diagnostics import diagnosed_error
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

    def _worker(self, name: str) -> Worker:
        try:
            return self._by_name[name]
        except KeyError:
            raise WorkflowError(f"unknown worker {name!r}") from None

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
        fault-free run); ``tracer`` (or the ambient session tracer),
        when enabled, receives the simulated timeline as a
        ``workflow:<graph>`` process, and only then does the run record
        its transfer, scheduler and worker-slot events. ``journal``
        write-ahead logs every payload invocation, completion, fault
        and recovery — each event with the fields the replay fold
        reads — so the run survives a process crash; a task without a
        payload is journaled by its completion alone. ``resume``
        replays a crashed run — the deterministic timeline is
        re-executed and payloads that already ran are skipped. Returns
        (trace, recovery stats). Raises :class:`WorkflowError` before
        the first event when a task asks for more cpus than the largest
        worker has (``WF003``) and when every worker dies with no
        restart pending, and
        :class:`ChaosError` when a task exhausts its retry budget.
        """
        graph.validate()
        self.policy.prepare(graph)
        faults = chaos.faults if chaos is not None else []
        for fault in faults:
            _FAULT_KINDS[type(fault)].check(self, graph, fault)
        return _Run(self, graph, faults, journal, resume, tracer).execute()


def _staged(task) -> List[str]:
    """The objects a task must hold locally before it runs."""
    return list(task.inputs) + list(task.updates)


class _Run:
    """One execution of a graph on a server's workers.

    The attributes are the run's whole state and the methods are the
    engine's steps and fault handlers; the simulator drives the
    generator methods as processes. Building a run queues the tasks
    with no dependencies and arms every fault; :meth:`execute` runs it.
    ``session`` is the tracer the run publishes to (``tracer``, else
    the ambient one); the events only it reads are emitted only while
    it is enabled.
    """

    def __init__(self, server: ResilientServer, graph: TaskGraph,
                 faults: list, journal: Optional[RunJournal],
                 resume: Optional[ReplayState],
                 tracer: Optional[Tracer] = None):
        self.server = server
        self.session = tracer if tracer is not None else current_tracer()
        self.graph = graph
        self.journal = journal
        self.policy = server.policy
        self.retry = server.retry
        self.workers = server.workers
        #: Workers out of the pool (crashed, or reconfiguring), and the
        #: pool without them, rebuilt only where ``failed`` changes.
        self.failed: Set[str] = set()
        self.alive: List[Worker] = self.workers
        #: Link faults in force on the default (no-ecosystem) staging
        #: path, under the pair (ANY_LINK, ANY_LINK), and what they add
        #: up to — ``(partitioned, bandwidth factor, added latency)`` —
        #: refreshed by ``degrade_link`` when one starts or heals.
        self.default_overlay = LinkOverlay()
        self.refresh_default_path()
        self.stats = RecoveryStats()
        self.metrics = current_metrics()
        self.tasks_executed = self.metrics.counter(
            "workflow.tasks_executed",
            "tasks completed by the workflow engine",
        )
        #: Tasks completed per worker, published to ``tasks_executed``
        #: once, when the run ends or raises.
        self.completed: Dict[str, int] = {}
        self.faults_observed = self.metrics.counter(
            "workflow.faults", "injected faults observed",
        )
        self.recoveries_taken = self.metrics.counter(
            "workflow.recoveries", "recovery actions taken",
        )
        #: Transient failures still to inject, per task.
        self.fault_budget: Dict[str, int] = {}

        #: Unfinished dependencies per task; moves only where
        #: ``finished`` moves (a finish, a lineage invalidation). The
        #: pass that counts them refuses a task no worker can ever fit.
        self.unmet: Dict[str, int] = {}
        widest = max(worker.cpus for worker in self.workers)
        for name, task in graph.tasks.items():
            if task.cpus > widest:
                raise diagnosed_error(
                    WorkflowError, "WF003",
                    f"task {name!r} requests {task.cpus} cpus but the "
                    f"largest worker offers {widest}",
                    anchor=f"{graph.name}/{name}", analysis="workflow",
                )
            self.unmet[name] = len(graph.dependencies(name))

        self.sim = Simulator()
        self.events = make_sim_tracer(self.sim, graph.name)
        self.skipper = self.begin_journal(resume)

        self.locations: Dict[str, str] = {}
        self.homes: Dict[str, str] = {}
        for obj in graph.external_inputs():
            # locality names a worker, else a node, else the first worker
            worker = server._by_name.get(obj.locality) or next(
                (w for w in self.workers if w.node_name == obj.locality),
                self.workers[0],
            )
            self.locations[obj.name] = worker.name
            self.homes[obj.name] = worker.name
            worker.store.add(obj.name)

        self.finished: Set[str] = set()
        self.running: Dict[str, Worker] = {}
        self.backing_off: Set[str] = set()
        #: The ready queue in dispatch order: the names ``select``
        #: walks and, beside them, their (policy priority, arrival
        #: sequence) keys. ``queued`` keeps every queued task's key,
        #: also while a dependency invalidated under the task holds it
        #: out of the order: it returns to the place it had, as if it
        #: had been passed over at every launch in between.
        self.ready: List[str] = []
        self.order: List[tuple] = []
        self.queued: Dict[str, tuple] = {}
        self.arrivals = count()
        self.ready_at: Dict[str, float] = {}
        self.attempts: Dict[str, int] = {}
        #: Bumped whenever a worker leaves the pool: an attempt or a
        #: readmission that saw an older incarnation is stale.
        self.incarnations: Dict[str, int] = {
            worker.name: 0 for worker in self.workers
        }
        #: Restarts and repairs still to come: while one is pending, a
        #: run with no live worker waits instead of failing.
        self.readmissions = 0
        #: Lost external inputs waiting for a live worker to fetch to.
        self.deferred_refetch: Set[str] = set()
        self.wake = self.sim.event()

        for task_name in graph.topological_order():
            if not self.unmet[task_name]:
                self.mark_ready(task_name)
        for fault in faults:
            process = _FAULT_KINDS[type(fault)].apply(self, fault)
            if process is not None:
                self.sim.process(process, name=f"fault:{fault.kind}")

    def execute(self) -> tuple:
        """Run to completion; returns (trace, recovery stats)."""
        try:
            self.sim.run_process(self.dispatcher(), name="dispatcher")
        finally:
            for name, done in self.completed.items():
                self.tasks_executed.inc(done, worker=name)
        trace = ExecutionTrace.from_tracer(
            self.events, graph_name=self.graph.name,
            policy=f"{self.policy.name}+recovery",
        )
        self.metrics.counter(
            "workflow.bytes_moved", "bytes staged between workers",
        ).inc(trace.bytes_moved)
        self.metrics.counter(
            "workflow.retries", "task attempts retried after a fault",
        ).inc(self.stats.retries)
        if self.journal is not None:
            self.journal.finish(trace.digest(), makespan=trace.makespan)
            self.journal.detach()
        if self.session.enabled:
            self.session.absorb(
                self.events, process=f"workflow:{self.graph.name}")
        return trace, self.stats

    # -- journal -------------------------------------------------------

    def begin_journal(self, resume: Optional[ReplayState]
                      ) -> Optional[PayloadSkipper]:
        """Prologue for durable/resumed execution.

        When resuming, the journaled header must describe the same run
        recipe we are about to re-execute — same graph content, policy
        and worker pool — otherwise the deterministic replay would
        silently diverge from what the journal proves happened; that
        mismatch is a hard ``WF009`` error. When journaling, the header
        is written and the journal hooks the simulated-time tracer so
        every journaled transition is durable before execution proceeds.
        A run with neither builds no recipe, so it never digests the
        graph.

        Returns the payload skipper for a resumed run (None otherwise).
        """
        if self.journal is None and resume is None:
            return None
        graph = self.graph
        recipe = {
            "graph": graph.name,
            "graph_digest": graph.digest(),
            "policy": self.policy.name,
            "workers": [worker.name for worker in self.workers],
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
        if self.journal is not None:
            self.journal.start(recipe)
            self.journal.attach(self.events)
        return resume.payload_skipper() if resume is not None else None

    # -- trace records -------------------------------------------------

    def record_fault(self, kind: str, target: str, detail: str = ""
                     ) -> None:
        self.events.instant(
            kind, category=FAULT_CATEGORY, track="faults",
            kind=kind, target=target, time=self.sim.now, detail=detail,
        )
        self.faults_observed.inc(kind=kind)

    def record_recovery(self, action: str, target: str, detail: str = ""
                        ) -> None:
        self.events.instant(
            action, category=RECOVERY_CATEGORY, track="recovery",
            action=action, target=target, time=self.sim.now,
            detail=detail,
        )
        self.recoveries_taken.inc(action=action)

    def resource_event(self, op: str, worker: Worker, units: int) -> None:
        """A worker-slot instant, for :mod:`repro.sanitize`; called
        only while the session is enabled."""
        self.events.instant(
            f"{op}:{worker.name}",
            category=RESOURCE_EVENT_CATEGORY, track=worker.name,
            op=op, resource=worker.name, units=units, capacity=worker.cpus,
        )

    # -- pool, staging and the ready queue -----------------------------

    def transfer_seconds(self, source: str, target: str,
                         size_bytes: int) -> float:
        if source == target or size_bytes == 0:
            return 0.0
        ecosystem = self.server.ecosystem
        if ecosystem is not None:
            src_node = self.server._worker(source).node_name
            dst_node = self.server._worker(target).node_name
            if src_node == dst_node:
                return 0.0
            return ecosystem.transfer_time(src_node, dst_node, size_bytes)
        partitioned, factor, latency_add = self.default_path
        if partitioned:
            raise PlatformError("default staging path is partitioned")
        return _DEFAULT_LATENCY_S + latency_add + size_bytes / (
            _DEFAULT_BANDWIDTH * factor
        )

    def transfer_cost(self, task_name: str, worker: Worker) -> float:
        """Staging seconds to run a task on a worker (for ``select``)."""
        total = 0.0
        for input_name in _staged(self.graph.tasks[task_name]):
            if worker.holds(input_name):
                continue
            source = self.locations.get(input_name)
            if source is None:
                return _UNREACHABLE_COST
            try:
                total += self.transfer_seconds(
                    source, worker.name,
                    self.graph.objects[input_name].size_bytes,
                )
            except PlatformError:
                return _UNREACHABLE_COST
        return total

    def place(self, task_name: str) -> None:
        """Put a queued task where its key says in the order."""
        at = bisect_left(self.order, self.queued[task_name])
        self.order.insert(at, self.queued[task_name])
        self.ready.insert(at, task_name)

    def displace(self, task_name: str) -> None:
        """Take a queued task out of the order (its key stays)."""
        at = bisect_left(self.order, self.queued[task_name])
        del self.order[at], self.ready[at]

    def mark_ready(self, task_name: str) -> None:
        if (
            task_name not in self.queued
            and task_name not in self.running
            and task_name not in self.finished
            and task_name not in self.backing_off
        ):
            self.queued[task_name] = (
                self.policy.priority(task_name), next(self.arrivals)
            )
            self.place(task_name)
            self.ready_at[task_name] = self.sim.now

    def recheck_ready(self) -> None:
        for task_name in self.graph.tasks:
            if not self.unmet[task_name]:
                self.mark_ready(task_name)

    def poke(self) -> None:
        """Wake the dispatcher."""
        if not self.wake.triggered:
            self.wake.trigger()

    # -- task attempts -------------------------------------------------

    def worker_ok(self, worker: Worker, epoch: int) -> bool:
        """The worker is in the pool, in the incarnation ``epoch``."""
        return (
            worker.name not in self.failed
            and self.incarnations[worker.name] == epoch
        )

    def requeue(self, task_name: str, worker: Worker, alive: bool,
                reason: str):
        """Abort the current attempt and retry after backoff."""
        task = self.graph.tasks[task_name]
        stats = self.stats
        self.running.pop(task_name, None)
        if alive:
            worker.release(task.cpus)
            if self.session.enabled:
                self.resource_event("release", worker, task.cpus)
        stats.tasks_requeued += 1
        attempt = self.attempts[task_name] = (
            self.attempts.get(task_name, 0) + 1)
        if attempt >= self.retry.max_attempts:
            raise ChaosError(
                f"task {task_name!r} aborted {attempt} times "
                f"(last: {reason}); retry budget exhausted"
            )
        delay = self.retry.backoff_for(attempt)
        stats.backoff_seconds += delay
        self.backing_off.add(task_name)
        self.record_recovery(
            "backoff", task_name,
            f"attempt {attempt} aborted ({reason}); "
            f"retry in {delay:.3f}s",
        )
        if delay:
            yield self.sim.timeout(delay)
        self.backing_off.discard(task_name)
        stats.retries += 1
        self.record_recovery("retry", task_name, f"attempt {attempt + 1}")
        if not self.unmet[task_name]:
            self.mark_ready(task_name)
        self.poke()

    def run_task(self, task_name: str, worker: Worker):
        """One attempt: stage the inputs, run, publish the outputs."""
        sim, graph, events = self.sim, self.graph, self.events
        store = worker.store
        epoch = self.incarnations[worker.name]
        task = graph.tasks[task_name]
        start_ready = self.ready_at.get(task_name, sim.now)
        start = sim.now
        staging = 0.0
        moved = 0
        staged = _staged(task)

        for input_name in staged:
            if input_name in store:
                continue
            source = self.locations.get(input_name)
            if source is None:
                yield from self.requeue(
                    task_name, worker, self.worker_ok(worker, epoch),
                    f"input {input_name!r} unavailable",
                )
                return
            size_bytes = graph.objects[input_name].size_bytes
            try:
                seconds = self.transfer_seconds(
                    source, worker.name, size_bytes)
            except PlatformError as exc:
                yield from self.requeue(
                    task_name, worker, self.worker_ok(worker, epoch),
                    str(exc),
                )
                return
            if seconds:
                stage_start = sim.now
                yield sim.timeout(seconds)
                if self.session.enabled:
                    events.complete(
                        f"stage:{input_name}", stage_start, sim.now,
                        category=TRANSFER_CATEGORY, track=worker.name,
                        source=source, bytes=size_bytes,
                    )
            if not self.worker_ok(worker, epoch):
                yield from self.requeue(
                    task_name, worker, False,
                    f"worker {worker.name!r} failed during staging",
                )
                return
            staging += seconds
            moved += size_bytes
            store.add(input_name)

        duration = worker.execution_time(task.duration_s)
        timeout_s = self.retry.task_timeout_s
        if self.fault_budget.get(task_name, 0) > 0:
            self.fault_budget[task_name] -= 1
            # the fault bites mid-execution: half the work is lost
            yield sim.timeout(duration * 0.5)
            self.stats.task_faults += 1
            self.record_fault(
                "task-fault", task_name,
                f"transient fault on {worker.name}",
            )
            yield from self.requeue(
                task_name, worker, self.worker_ok(worker, epoch),
                "transient task fault",
            )
            return
        if timeout_s is not None and duration > timeout_s:
            yield sim.timeout(timeout_s)
            yield from self.requeue(
                task_name, worker, self.worker_ok(worker, epoch),
                f"timeout: projected {duration:.3f}s > {timeout_s:.3f}s",
            )
            return
        if task.payload is not None:
            if self.journal is not None:
                events.instant("exec", category=EXEC_CATEGORY, track=worker.name,
                               task=task_name, worker=worker.name)
            if self.skipper is None or not self.skipper.take(task_name):
                task.payload()
        yield sim.timeout(duration)
        if not self.worker_ok(worker, epoch):
            yield from self.requeue(
                task_name, worker, False,
                f"worker {worker.name!r} failed mid-task",
            )
            return
        self.running.pop(task_name, None)
        worker.release(task.cpus)
        if self.session.enabled:
            self.resource_event("release", worker, task.cpus)
        writes = list(task.outputs) + list(task.updates)
        for output_name in writes:
            self.locations[output_name] = worker.name
            store.add(output_name)
        self.finished.add(task_name)
        events.complete(
            task_name, start, sim.now, category=TASK_CATEGORY,
            track=worker.name, task=task_name, worker=worker.name,
            ready_at=start_ready, start=start, end=sim.now,
            transfer_seconds=staging, bytes_moved=moved,
            reads=staged, writes=writes,
        )
        self.completed[worker.name] = self.completed.get(worker.name, 0) + 1
        unmet = self.unmet
        for consumer in graph.consumers(task_name):
            unmet[consumer] -= 1
            if unmet[consumer]:
                continue
            if consumer in self.queued:
                self.place(consumer)
            else:
                self.mark_ready(consumer)
        self.poke()

    # -- object recovery -----------------------------------------------

    def invalidate(self, producer: str, seen: Set[str]) -> None:
        """Lineage: re-run the producer of a lost object and, depth
        first, every task downstream of it.

        A task is unfinished (its ``lineage`` record emitted) before
        its consumers are visited and offered to the queue after them.
        The walk keeps its own stack: the depth of a graph must not
        meet the interpreter's recursion limit.
        """
        graph, unmet = self.graph, self.unmet
        path: List[str] = []
        pending = [iter((producer,))]  # then path's consumers
        while pending:
            for task_name in pending[-1]:
                if task_name in seen:
                    continue
                seen.add(task_name)
                consumers = graph.consumers(task_name)
                if task_name in self.finished:
                    self.finished.discard(task_name)
                    for consumer in consumers:
                        unmet[consumer] += 1
                        if unmet[consumer] == 1 and consumer in self.queued:
                            self.displace(consumer)
                    self.stats.tasks_relineaged += 1
                    self.record_recovery(
                        "lineage", task_name,
                        "output lost; re-executing producer",
                    )
                for output_name in graph.tasks[task_name].outputs:
                    self.locations.pop(output_name, None)
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
                        self.mark_ready(walked)

    def refetch(self, object_name: str):
        """Re-fetch a durable external input to its home, else to the
        first live worker; when the target dies during the fetch, fetch
        again to the next one. With no worker alive the input waits
        for the next readmission."""
        home = self.homes[object_name]
        while True:
            alive = self.alive
            if not alive:
                self.deferred_refetch.add(object_name)
                return
            target = next((w for w in alive if w.name == home), alive[0])
            yield self.sim.timeout(_REFETCH_LATENCY_S)
            if target.name not in self.failed:
                break
        target.store.add(object_name)
        self.locations[object_name] = target.name
        self.stats.inputs_refetched += 1
        self.record_recovery("refetch", object_name, f"to {target.name}")

    def take_down(self, victim: Worker, lose_store: bool):
        """Remove a worker from the pool and free its slots; when its
        store is lost too, recover the objects that had no other copy."""
        self.failed.add(victim.name)
        self.alive = [w for w in self.workers if w.name not in self.failed]
        self.incarnations[victim.name] += 1
        if self.session.enabled:
            self.resource_event("reset", victim, 0)
        if not lose_store:
            victim.busy_cpus = 0
            return
        lost_objects = set(victim.store)
        victim.reset()
        seen: Set[str] = set()
        for object_name in sorted(lost_objects):
            survivor = next(
                (w for w in self.alive if w.holds(object_name)), None,
            )
            if survivor is not None:
                self.locations[object_name] = survivor.name
                continue
            self.stats.objects_lost += 1
            producer = self.graph.objects[object_name].producer
            if producer is None:
                self.locations.pop(object_name, None)
                yield from self.refetch(object_name)
            else:
                self.invalidate(producer, seen)

    def readmit(self, victim: Worker, action: str, down_incarnation: int,
                fresh: bool):
        """Return a worker to the pool after restart/repair, unless it
        went down again meanwhile."""
        self.readmissions -= 1
        if (
            victim.name in self.failed
            and self.incarnations[victim.name] == down_incarnation
        ):
            self.failed.discard(victim.name)
            self.alive = [w for w in self.workers if w.name not in self.failed]
            if fresh:
                victim.reset()
            self.stats.restarts += 1
            self.record_recovery(action, victim.name)
            for object_name in sorted(self.deferred_refetch):
                self.deferred_refetch.discard(object_name)
                yield from self.refetch(object_name)
        self.recheck_ready()
        self.poke()

    # -- fault handlers (armed through _FAULT_KINDS) -------------------

    def outage(self, fault, back_after: Optional[float], lose_store: bool,
               back_as: str, wait: str):
        """A worker leaves the pool at ``fault.at_time`` — losing its
        store, or keeping it — and, unless ``back_after`` is None, is
        readmitted as ``back_as`` that much later (reset if its store
        was lost)."""
        yield self.sim.timeout(fault.at_time)
        victim = self.server._worker(fault.worker)
        self.record_fault(
            fault.kind, victim.name,
            "permanent" if back_after is None
            else f"{wait} in {back_after:.3f}s",
        )
        if lose_store:
            self.stats.failures += 1
        else:
            self.stats.reconfig_faults += 1
        yield from self.take_down(victim, lose_store)
        self.recheck_ready()
        self.poke()
        if back_after is None:
            return
        down = self.incarnations[victim.name]
        self.readmissions += 1
        yield self.sim.timeout(back_after)
        yield from self.readmit(victim, back_as, down, fresh=lose_store)

    def straggle(self, fault: StragglerFault):
        yield self.sim.timeout(fault.at_time)
        victim = self.server._worker(fault.worker)
        self.record_fault(
            "straggler", victim.name,
            f"{fault.slowdown:.2f}x for {fault.duration_s:.3f}s",
        )
        self.stats.stragglers += 1
        epoch = self.incarnations[victim.name]
        victim.slowdown = max(victim.slowdown, fault.slowdown)
        yield self.sim.timeout(fault.duration_s)
        if self.incarnations[victim.name] == epoch:
            victim.slowdown = 1.0
        self.record_recovery("straggler-clear", victim.name)
        self.poke()

    def degrade_link(self, fault: LinkFault):
        yield self.sim.timeout(fault.at_time)
        detail = (
            "severed" if fault.partition
            else f"bandwidth x{fault.bandwidth_factor:.3f}, "
                 f"+{fault.latency_add_s * 1e3:.1f}ms"
        )
        self.record_fault(fault.kind, fault.target, detail)
        self.stats.link_faults += 1
        overlay = (
            self.default_overlay if fault.node_a == ANY_LINK
            else self.server.ecosystem.overlay
        )
        degradation = None if fault.partition else (
            fault.bandwidth_factor, fault.latency_add_s)
        overlay.add(fault.node_a, fault.node_b, degradation)
        self.refresh_default_path()
        yield self.sim.timeout(fault.duration_s)
        overlay.remove(fault.node_a, fault.node_b, degradation)
        self.refresh_default_path()
        self.record_recovery("link-heal", fault.target)
        self.poke()

    def refresh_default_path(self) -> None:
        overlay = self.default_overlay
        self.default_path = (overlay.is_partitioned(ANY_LINK, ANY_LINK),
                             *overlay.state(ANY_LINK, ANY_LINK))

    def arm_task_fault(self, fault: TaskFault) -> None:
        """Task faults need no process: ``run_task`` spends the budget."""
        self.fault_budget[fault.task] = (
            self.fault_budget.get(fault.task, 0) + fault.failures
        )

    # -- dispatch loop -------------------------------------------------

    def dispatcher(self):
        graph, events, queued = self.graph, self.events, self.queued
        while len(self.finished) < len(graph.tasks):
            if not self.alive and self.readmissions == 0:
                raise WorkflowError(
                    "all workers failed; workflow cannot complete"
                )
            while self.ready:
                choice = self.policy.select(
                    self.ready, self.alive, graph, self.locations,
                    self.transfer_cost,
                )
                if choice is None:
                    break
                task_name, worker = choice
                cpus = graph.tasks[task_name].cpus
                self.displace(task_name)
                del queued[task_name]
                worker.acquire(cpus)
                if self.session.enabled:
                    events.instant(
                        "dispatch", category=SCHED_CATEGORY,
                        track="scheduler", task=task_name,
                        worker=worker.name,
                    )
                    events.counter(
                        "ready_tasks", float(len(queued)),
                        category=SCHED_CATEGORY, track="scheduler",
                    )
                    self.resource_event("request", worker, cpus)
                self.running[task_name] = worker
                self.sim.process(
                    self.run_task(task_name, worker),
                    name=f"task:{task_name}",
                )
            if len(self.finished) >= len(graph.tasks):
                break
            self.wake = self.sim.event()
            yield self.wake
        return None


# -- the fault vocabulary ----------------------------------------------


def _check_worker(server: ResilientServer, graph: TaskGraph,
                  fault) -> None:
    if fault.worker not in server._by_name:
        raise WorkflowError(
            f"{fault.kind} names unknown worker {fault.worker!r}"
        )


def _check_link(server: ResilientServer, graph: TaskGraph,
                fault: LinkFault) -> None:
    if fault.node_a == ANY_LINK and fault.node_b == ANY_LINK:
        return
    if server.ecosystem is None:
        raise WorkflowError(
            f"link fault targets {fault.node_a!r}<->{fault.node_b!r} "
            f"but the server has no ecosystem topology"
        )
    server.ecosystem.link_between(fault.node_a, fault.node_b)


def _check_task(server: ResilientServer, graph: TaskGraph,
                fault: TaskFault) -> None:
    if fault.task not in graph.tasks:
        raise WorkflowError(
            f"{fault.kind} names unknown task {fault.task!r}"
        )


class _FaultKind(NamedTuple):
    """How the engine treats one class of :mod:`repro.chaos.faults`."""

    #: ``check(server, graph, fault)`` raises :class:`WorkflowError`
    #: when the fault names a target the run lacks; it runs for every
    #: fault before the run starts.
    check: Callable
    #: ``apply(run, fault)`` arms the fault on a :class:`_Run`: it
    #: returns the simulator process that injects it, or None when the
    #: fault acts through the run's state alone.
    apply: Callable


#: One row per fault class; adding a fault class is adding a row.
_FAULT_KINDS = {
    WorkerCrash: _FaultKind(_check_worker, lambda run, fault: run.outage(
        fault, fault.restart_after, lose_store=True,
        back_as="worker-restart", wait="restart",
    )),
    ReconfigFault: _FaultKind(_check_worker, lambda run, fault: run.outage(
        fault, fault.repair_s, lose_store=False,
        back_as="worker-readmit", wait="repair",
    )),
    StragglerFault: _FaultKind(_check_worker, _Run.straggle),
    LinkFault: _FaultKind(_check_link, _Run.degrade_link),
    TaskFault: _FaultKind(_check_task, _Run.arm_task_fault),
}
