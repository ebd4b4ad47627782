"""The five workloads, as closed-loop single-caller op streams.

Each workload is an object with the same four-step protocol, which is
all the runner knows about it:

``prepare(tick)``
    The repeatable part of set-up: build the caches or stores the timed
    ops start from, under a fresh sub-directory of the run's work dir.
``stage(index)``
    Untimed: turn generated input ``index`` into the objects the op
    consumes (a kernel source, a graph and its fault schedule, a wave
    of job specs).
``run_op(staged)``
    Timed: one unit of user-visible work, through public functions of
    the program only.
``check_op(staged, outcome)``
    Untimed: verify the op's output and count its work units.

Op 0 is the warm-up; ops ``1..ops`` are timed. Every path a workload
touches lives under the work dir it was given — the process-wide DSE
and analysis caches are pointed there explicitly, run stores and job
stores get explicit paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.chaos import ChaosConfig, generate_schedule, random_task_graph
from repro.core.analysis.cache import configure_analysis_cache
from repro.core.compiler import EverestCompiler
from repro.core.dse.cache import DEFAULT_PREPARED_CAPACITY, configure
from repro.core.dse.cost_model import prepare_variant_module
from repro.core.dse.explorer import Explorer
from repro.core.dse.pareto import knee_point
from repro.core.dse.space import DesignSpace
from repro.core.frontend import import_model
from repro.core.ir.digest import module_digest
from repro.core.ir.interp import run_function
from repro.obs.driver import pipeline_from_sources
from repro.platform.topology import build_reference_ecosystem
from repro.runtime import RuntimeExecutor
from repro.runtime.orchestrator import Orchestrator
from repro.workflow.client import ServiceClient
from repro.workflow.jobstore import JobSpec
from repro.workflow.launcher import Launcher
from repro.workflow.recovery import ResilientServer
from repro.workflow.runstore import RunStore
from repro.workflow.scheduler import make_policy
from repro.workflow.worker import Worker

from benchmarks.e2e import inputs

#: The 56-point knob space every compile op explores: 8 CPU points and
#: 48 FPGA points, a few of which miss timing at 350 MHz.
SPACE = DesignSpace(
    targets=("cpu", "fpga"),
    threads=(1, 2, 4, 8),
    unrolls=(1, 2, 4, 8),
    tiles=(0, 8),
    memory_strategies=("auto", "cyclic", "none"),
    clocks_hz=(250e6, 350e6),
)

EXECUTOR_ROUNDS = 100
#: Kernels whose knee variant is executed by the IR interpreter and
#: compared with the numpy reference, per run.
INTERP_SAMPLES = 3
INTERP_MAX_OPS = 20_000

CHAOS = ChaosConfig(crashes=4, link_faults=4, reconfig_faults=2,
                    stragglers=4, task_faults=8)
SNAPSHOT_EVERY = 200
LEASE_SIZE = 16


@dataclass
class OpResult:
    """What one checked op contributes to the run."""

    #: Work units done: DSE points, task executions, or jobs.
    work: int
    #: Failed output checks, empty when the op is correct.
    failures: List[str] = field(default_factory=list)
    #: Deterministic facts, summed (or collected) over the run.
    facts: Dict[str, float] = field(default_factory=dict)


class Workload:
    """Base of the five workloads."""

    name = ""
    #: What ``work_per_s`` counts on this workload.
    work_unit = ""
    #: Timed ops per second of ``--seconds`` on the sizing box. The op
    #: count is fixed from it (not from a stopwatch) so that counts,
    #: input digests and simulated results repeat exactly.
    ops_per_second = 1.0
    #: Ops in one cycle of the workload's profile: a *round*, the unit
    #: the throughput metrics take their median over.
    round_ops = 1

    def __init__(self, seed: int, ops: int, workdir: Path):
        self.seed = seed
        self.ops = ops
        self.workdir = Path(workdir)
        self._generation = 0

    def _fresh_dir(self) -> Path:
        self._generation += 1
        path = self.workdir / f"{self.name}-{self._generation}"
        path.mkdir(parents=True)
        return path

    @classmethod
    def descriptors(cls, seed: int, ops: int) -> List[Dict]:
        """Input identities of ops ``0..ops`` for the input digest."""
        raise NotImplementedError

    def prepare(self, tick=lambda: None) -> None:
        """Build the state the first op starts from.

        A set-up that takes seconds calls ``tick()`` between its units
        of work so the runner can sample the host speed along the way.
        """

    def stage(self, index: int):
        """Generated input ``index``, ready to run."""
        raise NotImplementedError

    def run_op(self, staged):
        """The timed op."""
        raise NotImplementedError

    def check_op(self, staged, outcome) -> OpResult:
        """Verify one op's output."""
        raise NotImplementedError

    def finish(self) -> List[str]:
        """Whole-run output checks; returns the failures."""
        return []


# ---------------------------------------------------------------------
# compile_cold / compile_warm


def compile_application(kernel: inputs.KernelInput,
                        emit_artifacts: bool = True):
    """Spec in, packaged variants out, deployed and executed."""
    source = kernel.source
    if source is None:
        source = import_model(kernel.model).dsl_source
    pipeline = pipeline_from_sources(kernel.name, [source])
    app = EverestCompiler(
        space=SPACE, emit_artifacts=emit_artifacts,
    ).compile(pipeline)
    if not emit_artifacts:
        return app, None, None
    report = Orchestrator(build_reference_ecosystem()).deploy(app)
    execution = RuntimeExecutor(app).run(EXECUTOR_ROUNDS)
    return app, report, execution


class _CompileWorkload(Workload):
    work_unit = "points"
    round_ops = len(inputs.COMPILE_PROFILE)

    def __init__(self, seed: int, ops: int, workdir: Path):
        super().__init__(seed, ops, workdir)
        checkable = [
            index for index in range(1, ops + 1)
            if inputs.kernel_input(seed, index).interp_ops
            <= INTERP_MAX_OPS
        ]
        rng = inputs.rng_for(seed, "compile-check", 0)
        self.interp_sample = set(rng.sample(
            checkable, min(INTERP_SAMPLES, len(checkable))
        ))

    @classmethod
    def descriptors(cls, seed: int, ops: int) -> List[Dict]:
        return [inputs.kernel_input(seed, index).descriptor()
                for index in range(ops + 1)]

    def stage(self, index: int):
        return index, inputs.kernel_input(self.seed, index)

    def _point_caches_at(self, root: Path) -> None:
        """Fresh in-memory caches over the on-disk stores in ``root``."""
        configure(cache_dir=root / "dse",
                  prepared_capacity=DEFAULT_PREPARED_CAPACITY)
        configure_analysis_cache(root / "analysis")

    def _check_app(self, index: int, kernel: inputs.KernelInput,
                   outcome, reference_front: str) -> OpResult:
        app, report, execution = outcome
        result = app.exploration[kernel.name]
        failures = []
        if result.front_json() != reference_front:
            failures.append(f"{kernel.name}: cold and warm fronts differ")
        if not app.package.verify_integrity():
            failures.append(f"{kernel.name}: package integrity")
        if len(execution.rounds) != EXECUTOR_ROUNDS:
            failures.append(f"{kernel.name}: executor rounds")
        knee = knee_point(result.front)
        if index in self.interp_sample:
            failures.extend(self._check_semantics(app, kernel, knee))
        return OpResult(
            work=result.evaluations,
            failures=failures,
            facts={
                "knee_latency_s": knee.cost.latency_s,
                "sim_makespan_s": report.makespan,
                "task_executions": len(report.trace.records),
                "front_size": len(result.front),
                "feasible": len(result.feasible),
                "switches": execution.switches,
            },
        )

    def _check_semantics(self, app, kernel: inputs.KernelInput,
                         knee) -> List[str]:
        """Knee variant's lowered code against the numpy reference."""
        arguments = inputs.reference_arguments(
            kernel, inputs.rng_for(self.seed, "compile-args", 0)
        )
        expected = inputs.reference_output(kernel, arguments)
        lowered = prepare_variant_module(app.module, kernel.name,
                                         knee.knobs)
        produced = np.zeros(kernel.out_shape, np.float32)
        run_function(lowered, kernel.name, *arguments, produced)
        if not np.allclose(produced, expected, rtol=1e-4, atol=1e-4):
            return [f"{kernel.name}: knee variant output differs from "
                    f"the numpy reference"]
        return []


class CompileCold(_CompileWorkload):
    """The developer's first build: every cache empty, every op."""

    name = "compile_cold"
    ops_per_second = 4.0

    def prepare(self, tick=lambda: None) -> None:
        self.root = self._fresh_dir()

    def run_op(self, staged):
        index, kernel = staged
        self._point_caches_at(self.root / f"op-{index}")
        return compile_application(kernel)

    def check_op(self, staged, outcome) -> OpResult:
        index, kernel = staged
        app = outcome[0]
        # the op left its cost cache warm: exploring again must serve
        # the identical front from it
        warm = Explorer(
            app.module, kernel.name, space=SPACE,
            digest=module_digest(app.module),
        ).run("exhaustive")
        return self._check_app(index, kernel, outcome,
                               warm.front_json())


class CompileWarm(_CompileWorkload):
    """A second invocation: empty memory over populated disk caches."""

    name = "compile_warm"
    ops_per_second = 4.0

    def prepare(self, tick=lambda: None) -> None:
        self.root = self._fresh_dir()
        self._point_caches_at(self.root)
        self.cold_fronts = {}
        for index in range(self.ops + 1):
            tick()
            kernel = inputs.kernel_input(self.seed, index)
            # emission writes to neither cache, so the populating pass
            # skips it
            app, _report, _execution = compile_application(
                kernel, emit_artifacts=False,
            )
            self.cold_fronts[index] = (
                app.exploration[kernel.name].front_json()
            )

    def run_op(self, staged):
        _index, kernel = staged
        self._point_caches_at(self.root)
        return compile_application(kernel)

    def check_op(self, staged, outcome) -> OpResult:
        index, kernel = staged
        return self._check_app(index, kernel, outcome,
                               self.cold_fronts[index])


# ---------------------------------------------------------------------
# workflow_plain / workflow_chaos


def worker_pool() -> List[Worker]:
    """8 workers x 2 cpus, one per node."""
    return [Worker(f"w{index}", node_name=f"n{index}", cpus=2)
            for index in range(8)]


def new_server() -> ResilientServer:
    """The engine ``Orchestrator.deploy`` runs, b-level policy."""
    return ResilientServer(worker_pool(),
                           policy=make_policy("b-level"))


class _Killed(Exception):
    """Raised by the harness payload that cuts a run mid-flight."""


@dataclass
class _StagedGraph:
    spec: inputs.GraphInput
    graph: object
    schedule: object = None
    #: Second copy of graph and schedule for the resumed half of a cut
    #: op (a server mutates the graph's payload bookkeeping).
    resume_graph: object = None
    resume_schedule: object = None


class _WorkflowWorkload(Workload):
    work_unit = "task executions"
    round_ops = len(inputs.WORKFLOW_SIZES)

    @classmethod
    def descriptors(cls, seed: int, ops: int) -> List[Dict]:
        return [inputs.graph_input(seed, index).descriptor()
                for index in range(ops + 1)]

    @staticmethod
    def _graph(spec: inputs.GraphInput):
        return random_task_graph(spec.graph_seed,
                                 num_tasks=spec.num_tasks)

    @staticmethod
    def _check_records(spec: inputs.GraphInput, graph, trace,
                       exactly_once: bool) -> List[str]:
        executed = [record.task for record in trace.records]
        if set(executed) != set(graph.tasks):
            return [f"op {spec.index}: tasks without a record"]
        if exactly_once and len(executed) != len(graph.tasks):
            return [f"op {spec.index}: a task ran twice fault-free"]
        return []


class WorkflowPlain(_WorkflowWorkload):
    """Fault-free, unjournaled: engine and simulator do all the work."""

    name = "workflow_plain"
    ops_per_second = 9.0

    def __init__(self, seed: int, ops: int, workdir: Path):
        super().__init__(seed, ops, workdir)
        self._first_digest: Optional[str] = None

    def stage(self, index: int):
        spec = inputs.graph_input(self.seed, index)
        return _StagedGraph(spec, self._graph(spec))

    def run_op(self, staged):
        return new_server().run(staged.graph)

    def check_op(self, staged, outcome) -> OpResult:
        trace, stats = outcome
        if staged.spec.index == 1:
            self._first_digest = trace.digest()
        return OpResult(
            work=len(trace.records),
            failures=self._check_records(staged.spec, staged.graph,
                                         trace, exactly_once=True),
            facts={"sim_makespan_s": trace.makespan,
                   "tasks": len(staged.graph.tasks),
                   "retries": stats.retries,
                   "faults": len(trace.faults)},
        )

    def finish(self) -> List[str]:
        trace, _stats = self.run_op(self.stage(1))
        if trace.digest() != self._first_digest:
            return ["op 1: digest changed when the op was repeated"]
        return []


class WorkflowChaos(_WorkflowWorkload):
    """Same graphs under faults, journaled, every fourth op resumed."""

    name = "workflow_chaos"
    ops_per_second = 5.0

    def prepare(self, tick=lambda: None) -> None:
        self.store = RunStore(self._fresh_dir() / "runs")

    def _schedule(self, spec: inputs.GraphInput, graph):
        return generate_schedule(
            graph, [worker.name for worker in worker_pool()],
            spec.fault_seed, CHAOS,
        )

    def stage(self, index: int):
        spec = inputs.graph_input(self.seed, index)
        graph = self._graph(spec)
        staged = _StagedGraph(spec, graph, self._schedule(spec, graph))
        if spec.cut:
            def kill() -> None:
                raise _Killed()

            midpoint = f"t{spec.num_tasks // 2}"
            graph.tasks[midpoint].payload = kill
            staged.resume_graph = self._graph(spec)
            staged.resume_schedule = self._schedule(
                spec, staged.resume_graph)
        return staged

    def run_op(self, staged):
        run_id = f"op-{staged.spec.index}"
        _run_id, journal = self.store.create_run(
            "bench", {"op": staged.spec.index}, run_id=run_id,
            snapshot_every=SNAPSHOT_EVERY,
        )
        try:
            with journal:
                trace, stats = new_server().run(
                    staged.graph, chaos=staged.schedule,
                    journal=journal,
                )
            return trace, stats, 0
        except _Killed:
            pass
        _meta, state, journal = self.store.prepare_resume(
            run_id, snapshot_every=SNAPSHOT_EVERY,
        )
        with journal:
            trace, stats = new_server().run(
                staged.resume_graph, chaos=staged.resume_schedule,
                journal=journal, resume=state,
            )
        # executions the killed attempt completed count as work done
        return trace, stats, state.total_completions()

    def check_op(self, staged, outcome) -> OpResult:
        trace, stats, killed_executions = outcome
        spec = staged.spec
        graph = staged.resume_graph or staged.graph
        failures = self._check_records(spec, graph, trace,
                                       exactly_once=False)
        if spec.cut:
            # the unbroken run of the same recipe, outside the timing
            reference_graph = self._graph(spec)
            unbroken, _stats = new_server().run(
                reference_graph,
                chaos=self._schedule(spec, reference_graph),
            )
            if unbroken.digest() != trace.digest():
                failures.append(
                    f"op {spec.index}: resumed digest differs from "
                    f"the unbroken run"
                )
        return OpResult(
            work=len(trace.records) + killed_executions,
            failures=failures,
            facts={"sim_makespan_s": trace.makespan,
                   "tasks": len(graph.tasks),
                   "retries": stats.retries,
                   "faults": len(trace.faults),
                   "resumed": int(spec.cut)},
        )


# ---------------------------------------------------------------------
# service_drain


@dataclass
class _StagedWave:
    index: int
    jobs: List[inputs.JobInput]
    specs: List[JobSpec]
    previous: Optional[List[JobSpec]]


@dataclass
class _WaveOutcome:
    inserted: List[int]
    duplicates_inserted: int
    cancelled: int
    launcher: object
    counts: Dict[str, int]
    listed: list


def _job_specs(jobs: List[inputs.JobInput]) -> List[JobSpec]:
    return [JobSpec(name=job.name, kind=job.kind, spec=dict(job.spec))
            for job in jobs]


class ServiceDrain(Workload):
    """Waves of tagged jobs through one growing job store."""

    name = "service_drain"
    work_unit = "jobs"
    ops_per_second = 8.5
    round_ops = inputs.SPECIAL_EVERY
    owner = "bench"

    @classmethod
    def descriptors(cls, seed: int, ops: int) -> List[Dict]:
        return [
            {"name": job.name, "kind": job.kind, "spec": job.spec}
            for index in range(ops + 1)
            for job in inputs.wave_jobs(seed, index)
        ]

    def prepare(self, tick=lambda: None) -> None:
        root = self._fresh_dir()
        self.db_path = root / "jobs.db"
        self.run_store = RunStore(root / "runs")
        self.executed_ids: List[int] = []
        # creates the store file and schema, as `repro service init`
        ServiceClient(self.db_path, default_owner=self.owner).close()

    def stage(self, index: int):
        jobs = inputs.wave_jobs(self.seed, index)
        previous = None
        if inputs.wave_is_special(index):
            previous = _job_specs(
                inputs.wave_jobs(self.seed, index - 1))
        return _StagedWave(index, jobs, _job_specs(jobs), previous)

    def run_op(self, staged):
        tag = f"wave-{staged.index}"
        with ServiceClient(self.db_path,
                           default_owner=self.owner) as client:
            submitted = client.submit(staged.specs, tags=(tag, "bench"))
            duplicates_inserted = 0
            cancelled = 0
            if staged.previous is not None:
                again = client.submit(
                    staged.previous,
                    tags=(f"wave-{staged.index - 1}", "bench"),
                )
                duplicates_inserted = len(again.inserted)
                cancelled, _requested = client.cancel(
                    submitted.inserted[
                        -inputs.CANCELS_PER_SPECIAL_WAVE:]
                )
            launcher = Launcher(
                self.db_path, launcher_id="bench",
                lease_size=LEASE_SIZE, run_store=self.run_store,
            ).run()
            counts = client.counts(tag=tag)
            listed = client.jobs(tag=tag, limit=50)
        return _WaveOutcome(submitted.inserted, duplicates_inserted,
                            cancelled, launcher, counts, listed)

    def check_op(self, staged, outcome) -> OpResult:
        failures = []
        wave = f"wave {staged.index}"
        expected_cancels = (inputs.CANCELS_PER_SPECIAL_WAVE
                            if staged.previous is not None else 0)
        terminal = (outcome.counts["done"] + outcome.counts["failed"]
                    + outcome.counts["cancelled"])
        if len(outcome.inserted) != inputs.WAVE_JOBS:
            failures.append(f"{wave}: not every job was inserted")
        if terminal != inputs.WAVE_JOBS or outcome.counts["failed"]:
            failures.append(f"{wave}: jobs not terminal or failed: "
                            f"{outcome.counts}")
        if outcome.cancelled != expected_cancels:
            failures.append(f"{wave}: cancelled {outcome.cancelled}")
        if outcome.duplicates_inserted:
            failures.append(f"{wave}: duplicate re-submit inserted "
                            f"{outcome.duplicates_inserted} rows")
        if outcome.launcher.failed or outcome.launcher.crashed:
            failures.append(f"{wave}: launcher reported failures")
        self.executed_ids.extend(outcome.launcher.job_ids)
        by_name = {job.name: job for job in staged.jobs}
        for record in outcome.listed:
            generated = by_name.get(record.name)
            if generated is None:
                failures.append(f"{wave}: listed a foreign job")
            elif (generated.kind == "noop" and record.state == "done"
                  and record.result["digest"]
                  != inputs.noop_digest(generated.spec)):
                failures.append(f"{wave}: noop digest of {record.name}")
        return OpResult(
            work=terminal,
            failures=failures,
            facts={"leases": outcome.launcher.leases,
                   "cancelled": outcome.cancelled},
        )

    def finish(self) -> List[str]:
        if len(set(self.executed_ids)) != len(self.executed_ids):
            return ["a job id was executed twice across leases"]
        return []

    def store_footprint(self) -> Dict[str, float]:
        """Rows and on-disk size of the job store, for the probes."""
        with ServiceClient(self.db_path) as client:
            rows = sum(client.counts().values())
        size = sum(
            path.stat().st_size
            for path in self.db_path.parent.glob("jobs.db*")
        )
        return {"rows": rows, "db_kb": size / 1024.0}


WORKLOADS = {
    workload.name: workload
    for workload in (CompileCold, CompileWarm, WorkflowPlain,
                     WorkflowChaos, ServiceDrain)
}

