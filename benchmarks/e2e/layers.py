"""Per-layer metrics: folding the traced ops' spans, and the probes.

Two sources feed the per-layer list of ``BENCHMARK.json``:

* :func:`fold` turns the spans recorded around the traced ops into
  seconds, calls and per-call costs. A ``*_s`` metric taken from spans
  is the **self** time of that span name summed over the traced ops
  (``bench.traced_ops`` of them), unless its glossary entry in the
  README says otherwise. Spans are first brought to reference host
  speed with the factor of the op they belong to.
* :func:`probe` runs, after the ops and with nothing wrapped, the
  public calls an op never makes on its own (a pass alone on a clone,
  pricing at two workers, a 1000-task graph, a journal replay) and the
  paired with/without measurements (journal, obs tracer).

A workload reports 0 for the layers it never enters; that zero is the
evidence that the workloads discriminate.
"""

from __future__ import annotations

import gc
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

from benchmarks.e2e import inputs
from benchmarks.e2e.hostspeed import calibrate, host_scale
from benchmarks.e2e.spans import SpanRecorder, layer_of
from benchmarks.e2e.workloads import EXECUTOR_ROUNDS

#: Layers whose self time counts as "compile", "workflow" and
#: "service" in the ``bench.share_*`` metrics.
COMPILE_LAYERS = ("core.dsl", "core.frontend", "core.ir",
                  "core.ir.passes", "core.analysis", "core.dse",
                  "core.hls", "core.backend", "core.compiler")
WORKFLOW_LAYERS = ("workflow.recovery", "workflow.server",
                   "workflow.journal")
SERVICE_LAYERS = ("workflow.jobstore", "workflow.launcher")


def _cdfg_nodes(_args, _kwargs, cdfg) -> int:
    return sum(len(loop.body) for loop in cdfg.all_loops())


def _job_kind(args, _kwargs, _result) -> str:
    return args[1].kind


def _submit_rows(_args, _kwargs, result):
    return len(result.inserted), len(result.duplicates)


def _is_resume(_args, kwargs, _result) -> bool:
    return kwargs.get("resume") is not None


#: ``note`` callbacks by span name (see ``SpanRecorder.wrap``).
NOTES: Dict[str, Callable] = {
    "core.hls.cdfg": _cdfg_nodes,
    "workflow.launcher.execute": _job_kind,
    "workflow.jobstore.submit": _submit_rows,
    "workflow.recovery.run": _is_resume,
}


def timed(action: Callable) -> float:
    """Seconds one call takes, from a collected heap, at reference
    host speed (see :mod:`benchmarks.e2e.hostspeed`)."""
    gc.collect()
    before = calibrate()
    start = time.perf_counter()
    action()
    elapsed = time.perf_counter() - start
    return elapsed * host_scale(before, calibrate())


# ---------------------------------------------------------------------
# folding spans


def fold(recorder: SpanRecorder, traced, untraced,
         facts: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics out of the traced ops' spans.

    ``traced``/``untraced`` are the runner's ``Driven`` records of the
    traced ops and of the reference ops re-run with nothing wrapped;
    ``facts`` the deterministic results the traced ops reported.
    """
    recorder.rescale(traced.scale_by_op)
    self_s, inclusive_s, calls = recorder.totals()
    spans = recorder.spans
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        children.setdefault(span.parent, []).append(index)

    def per_call(name: str, scale: float) -> float:
        count = calls.get(name, 0)
        return scale * inclusive_s.get(name, 0.0) / count if count else 0.0

    metrics: Dict[str, float] = {
        "bench.traced_ops": len(traced.seconds),
        "bench.host_speed": traced.host_speed(),
    }

    # spans that map one-to-one onto a seconds metric
    for name in (
        "core.dsl.compile_kernel", "core.dsl.to_ir",
        "core.frontend.import_model", "core.ir.digest", "core.ir.clone",
        "core.ir.passes.prepare", "core.analysis.gate",
        "core.dse.explore", "core.hls.synthesize", "core.hls.cdfg",
        "core.hls.schedule", "core.hls.memory_plan",
        "core.backend.sycl_gen", "core.backend.bitstream",
        "core.backend.package", "runtime.orchestrator.deploy",
        "runtime.scheduler.place", "workflow.recovery.run",
        "workflow.server.run", "workflow.journal.append",
        "workflow.journal.snapshot", "workflow.journal.replay",
        "workflow.launcher.drain",
    ):
        metrics[f"{name}_s"] = self_s.get(name, 0.0)
    metrics["core.ir.passes.prepare_calls"] = calls.get(
        "core.ir.passes.prepare", 0)
    metrics["core.hls.synthesize_calls"] = calls.get(
        "core.hls.synthesize", 0)
    metrics["core.dsl.kernels"] = calls.get("core.dsl.to_ir", 0)
    metrics["core.frontend.models"] = calls.get(
        "core.frontend.import_model", 0)
    metrics["core.compiler.compile_s"] = inclusive_s.get(
        "core.compiler.compile", 0.0)
    metrics["core.compiler.unattributed_s"] = self_s.get(
        "core.compiler.compile", 0.0)

    # per-call costs
    metrics["core.dse.cost_cache_get_us"] = per_call(
        "core.dse.cost_cache_get", 1e6)
    metrics["core.dse.cost_cache_put_us"] = per_call(
        "core.dse.cost_cache_put", 1e6)
    metrics["core.dse.pareto_insert_us"] = per_call(
        "core.dse.pareto_insert", 1e6)
    metrics["runtime.autotuner.select_us"] = per_call(
        "runtime.autotuner.select", 1e6)
    for name, scale, suffix in (
        ("lease", 1e3, "ms"), ("complete", 1e6, "us"),
        ("heartbeat", 1e6, "us"), ("expire", 1e3, "ms"),
        ("counts", 1e3, "ms"), ("list", 1e3, "ms"),
        ("cancel", 1e3, "ms"),
    ):
        metrics[f"workflow.jobstore.{name}_{suffix}"] = per_call(
            f"workflow.jobstore.{name}", scale)

    # emission: what compile() does itself after exploring, i.e. the
    # wrapped calls whose parent is the compile span
    emit = 0.0
    reprepare = 0
    cdfg_nodes = 0
    fresh_rows = [0.0, 0]
    duplicate_rows = [0.0, 0]
    by_kind: Dict[str, List[float]] = {}
    rounds = 0.0
    resumed = 0.0
    for index, span in enumerate(spans):
        parent = spans[span.parent] if span.parent >= 0 else None
        if (parent is not None
                and parent.name == "core.compiler.compile"
                and layer_of(span.name) in (
                    "core.ir.passes", "core.hls", "core.backend")):
            emit += span.duration
            if span.name == "core.ir.passes.prepare" and any(
                spans[child].name == "core.ir.clone"
                for child in children.get(index, ())
            ):
                reprepare += 1  # an LRU miss clones the module
        if span.name == "core.hls.cdfg" and span.note:
            cdfg_nodes += span.note
        elif span.name == "workflow.jobstore.submit" and span.note:
            inserted, duplicates = span.note
            bucket = fresh_rows if inserted else duplicate_rows
            bucket[0] += span.duration
            bucket[1] += inserted + duplicates
        elif span.name == "workflow.launcher.execute":
            by_kind.setdefault(span.note, []).append(span.duration)
        elif span.name == "runtime.executor.run":
            rounds += span.duration
        elif span.name == "workflow.recovery.run" and span.note:
            resumed += span.duration
    metrics["core.backend.emit_s"] = emit
    metrics["core.backend.reprepare_calls"] = reprepare
    metrics["core.hls.cdfg_nodes"] = cdfg_nodes
    metrics["workflow.journal.resume_s"] = resumed
    metrics["workflow.jobstore.submit_us_per_job"] = (
        1e6 * fresh_rows[0] / fresh_rows[1] if fresh_rows[1] else 0.0)
    metrics["workflow.jobstore.duplicate_submit_us_per_job"] = (
        1e6 * duplicate_rows[0] / duplicate_rows[1]
        if duplicate_rows[1] else 0.0)
    for kind, scale, suffix in (("noop", 1e6, "us"),
                                ("graph", 1e3, "ms"),
                                ("chaos", 1e3, "ms")):
        samples = by_kind.get(kind, [])
        metrics[f"workflow.launcher.{kind}_{suffix}"] = (
            scale * sum(samples) / len(samples) if samples else 0.0)
    executor_calls = calls.get("runtime.executor.run", 0)
    if executor_calls:
        metrics["runtime.executor.round_us"] = (
            1e6 * rounds / (executor_calls * EXECUTOR_ROUNDS))

    # deterministic counts the ops reported
    work = facts["work"]
    if "feasible" in facts:
        metrics["core.dse.points"] = work
        metrics["core.dse.front_size"] = facts["front_size"]
        metrics["core.backend.variants"] = facts["feasible"]
        metrics["core.hls.infeasible_ratio"] = (
            1.0 - facts["feasible"] / work if work else 0.0)
        metrics["runtime.executor.switches"] = facts["switches"]
        gets = calls.get("core.dse.cost_cache_get", 0)
        puts = calls.get("core.dse.cost_cache_put", 0)
        metrics["core.dse.cost_cache_hit_ratio"] = (
            (gets - puts) / gets if gets else 0.0)
    if "retries" in facts:
        metrics["workflow.recovery.retries"] = facts["retries"]
        metrics["workflow.recovery.faults_injected"] = facts["faults"]
        metrics["workflow.recovery.useful_ratio"] = (
            facts["tasks"] / work if work else 0.0)
    if "leases" in facts:
        metrics["workflow.launcher.leases"] = facts["leases"]

    # where the time went, and what tracing cost
    layers = recorder.layer_self_seconds()
    total = sum(layers.values())
    if total:
        def share(names: Sequence[str]) -> float:
            return sum(layers.get(name, 0.0) for name in names) / total

        metrics["bench.share_compile"] = share(COMPILE_LAYERS)
        metrics["bench.share_runtime"] = share(("runtime",))
        metrics["bench.share_workflow"] = share(WORKFLOW_LAYERS)
        metrics["bench.share_service"] = share(SERVICE_LAYERS)
    compared = len(untraced.seconds)
    if compared and len(traced.seconds) >= compared:
        reference = sum(untraced.seconds)
        metrics["bench.trace_overhead_pct"] = 100.0 * (
            sum(traced.seconds[:compared]) / reference - 1.0)
        if "core.compiler.compile" in calls:
            attributed = sum(
                seconds
                for span, seconds in zip(spans, recorder.self_seconds())
                if 1 <= span.op <= compared
                and span.name not in ("bench.op",
                                      "core.compiler.compile")
            )
            metrics["core.compiler.trace_coverage"] = (
                attributed / reference)
    return metrics


# ---------------------------------------------------------------------
# probes


def probe(workload, workdir: Path) -> Tuple[Dict[str, float], List[str]]:
    """Run the layer probes that belong to ``workload``.

    Returns the metrics and the probes that were skipped because a
    name they import is gone — a later refactor may remove one (the
    roadmap plans to), and the benchmark that judges that refactor
    must still run: the metric reads 0 and the pass says why.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    metrics: Dict[str, float] = {}
    skipped: List[str] = []
    for name, probes in PROBES.items():
        if not workload.name.startswith(name):
            continue
        for one in probes:
            try:
                metrics.update(one(workload, workdir))
            except (ImportError, AttributeError) as exc:
                skipped.append(f"{one.__name__}: {exc}")
    return metrics, skipped


def _sample_indices(ops: int, count: int) -> List[int]:
    """Up to ``count`` op indices spread over the traced ops."""
    step = max(1, ops // count)
    return list(range(1, ops + 1, step))[:count]


def _fresh_caches(directory: Path) -> None:
    from repro.core.analysis.cache import configure_analysis_cache
    from repro.core.dse.cache import DEFAULT_PREPARED_CAPACITY, configure

    configure(cache_dir=directory / "dse",
              prepared_capacity=DEFAULT_PREPARED_CAPACITY)
    configure_analysis_cache(directory / "analysis")


def _sample_modules(workload, count: int):
    """``(kernel input, tensor-form module, digest)`` of sampled ops."""
    from repro.core.dsl.kernel_dsl import compile_kernel
    from repro.core.frontend import import_model
    from repro.core.ir.digest import module_digest

    for index in _sample_indices(workload.ops, count):
        kernel = inputs.kernel_input(workload.seed, index)
        source = kernel.source or import_model(kernel.model).dsl_source
        module = compile_kernel(source)
        yield kernel, module, module_digest(module)


def probe_cache_state(workload, workdir: Path) -> Dict[str, float]:
    """What the traced ops left in the process-wide caches."""
    from repro.core.analysis.cache import analysis_cache
    from repro.core.dse.cache import cost_cache

    return {
        "core.analysis.cache_hit_ratio": analysis_cache().stats.hit_ratio,
        "core.dse.cost_cache_disk_kb": cost_cache().disk_bytes() / 1024.0,
    }


def probe_ir(workload, workdir: Path) -> Dict[str, float]:
    """Print, parse, each FPGA-pipeline pass alone, static bounds."""
    from repro.core.analysis.perf import kernel_bounds
    from repro.core.ir.parser import parse_module
    from repro.core.ir.passes import (
        AccumulationInterleavePass,
        CanonicalizePass,
        ElementwiseFusionPass,
        LoopDirectivesPass,
        LowerTensorPass,
        TilingPass,
    )
    from repro.core.ir.printer import print_module

    metrics = {key: 0.0 for key in (
        "core.dsl.ir_ops", "core.ir.printed_kb", "core.ir.print_s",
        "core.ir.parse_s", "core.ir.passes.ops_after_lowering",
        "core.analysis.perf_bounds_s",
    )}
    for kernel, module, digest in _sample_modules(workload, 4):
        metrics["core.dsl.ir_ops"] += sum(1 for _ in module.walk())
        text = print_module(module)
        metrics["core.ir.printed_kb"] += len(text) / 1024.0
        metrics["core.ir.print_s"] += timed(lambda: print_module(module))
        metrics["core.ir.parse_s"] += timed(lambda: parse_module(text))
        clone = module.clone()
        for key, pass_ in (  # pipeline order
            ("fusion", ElementwiseFusionPass()),
            ("tiling", TilingPass(tile_sizes=(8, 8, 8))),
            ("lower_tensor", LowerTensorPass()),
            ("loop_directives", LoopDirectivesPass(unroll_factor=4)),
            ("interleave", AccumulationInterleavePass(8)),
            ("canonicalize", CanonicalizePass()),
        ):
            name = f"core.ir.passes.{key}_s"
            metrics[name] = metrics.get(name, 0.0) + timed(
                lambda: pass_.run(clone))
            if key == "lower_tensor":
                metrics["core.ir.passes.ops_after_lowering"] += sum(
                    1 for _ in clone.walk())
        _fresh_caches(workdir / f"bounds-{kernel.name}")
        metrics["core.analysis.perf_bounds_s"] += timed(
            lambda: kernel_bounds(module, kernel.name, digest))
    return metrics


def probe_pricing(workload, workdir: Path) -> Dict[str, float]:
    """Pricing at two workers, per point, and under bound guidance."""
    from repro.core.dse.cost_model import ArchitectureModel, price_variant
    from repro.core.dse.explorer import Explorer

    from benchmarks.e2e.workloads import SPACE

    model = ArchitectureModel()
    points = list(SPACE.points())
    thread_s = process_s = priced_s = 0.0
    priced = skipped = 0

    def explore(module, kernel, digest, **options):
        return Explorer(module, kernel.name, space=SPACE, digest=digest,
                        **options).run("exhaustive")

    for kernel, module, digest in _sample_modules(workload, 4):
        # every cache empty; the thread run leaves the prepared LRU
        # warm for the per-point pricing that follows
        _fresh_caches(workdir / f"thread-{kernel.name}")
        thread_s += timed(lambda: explore(
            module, kernel, digest, workers=2, workers_mode="thread"))
        priced_s += timed(lambda: [
            price_variant(module, kernel.name, knobs, model, digest)
            for knobs in points
        ])
        priced += len(points)
        guided = explore(module, kernel, digest, bound_guided=True)
        skipped += len(points) - guided.evaluations
        _fresh_caches(workdir / f"process-{kernel.name}")
        process_s += timed(lambda: explore(
            module, kernel, digest, workers=2, workers_mode="process"))
    return {
        "core.dse.explore_thread2_s": thread_s,
        "core.dse.explore_process2_s": process_s,
        "core.dse.price_point_us": 1e6 * priced_s / priced,
        "core.dse.bound_pruned_ratio": skipped / priced,
    }


def probe_applications(workload, workdir: Path) -> Dict[str, float]:
    """Artifact bytes and gate findings of two whole applications, and
    the same two compiled again under an obs session."""
    from repro.obs import observe, session

    from benchmarks.e2e.workloads import compile_application

    plain_s = observed_s = 0.0
    artifact_bytes = findings = 0
    for index in _sample_indices(workload.ops, 2):
        kernel = inputs.kernel_input(workload.seed, index)
        apps = []
        _fresh_caches(workdir / f"plain-{index}")
        plain_s += timed(
            lambda: apps.append(compile_application(kernel)[0]))
        findings += len(apps[0].diagnostics.items)
        artifact_bytes += sum(
            artifact.payload.size_bytes
            for artifact in apps[0].package.artifacts.values())
        _fresh_caches(workdir / f"observed-{index}")
        with observe(session(deterministic=False)):
            observed_s += timed(lambda: compile_application(kernel))
    metrics = {"core.analysis.findings": findings,
               "core.backend.artifact_kb": artifact_bytes / 1024.0}
    if workload.name == "compile_cold":
        metrics["obs.tracer_overhead_pct"] = 100.0 * (
            observed_s / plain_s - 1.0)
    return metrics


def probe_simulator(workload, workdir: Path) -> Dict[str, float]:
    """200 processes x 100 holds contending for one SimResource(4)."""
    from repro.platform.simulator import Simulator

    processes, holds = 200, 100
    sim = Simulator()
    resource = sim.resource(4, name="probe")

    def body():
        for _ in range(holds):
            yield resource.request()
            yield sim.timeout(0.001)
            resource.release()

    for _ in range(processes):
        sim.process(body())
    seconds = timed(sim.run)
    events = 2 * processes * holds  # one grant and one timeout per hold
    return {"platform.simulator.events_per_s": events / seconds,
            "platform.simulator.host_us_per_event":
                1e6 * seconds / events}


def _chaos_recipe(graph_seed: int, num_tasks: int, fault_seed: int):
    """A fresh ``(graph, schedule)`` pair; servers consume both."""
    from repro.chaos import generate_schedule, random_task_graph

    from benchmarks.e2e.workloads import CHAOS, worker_pool

    graph = random_task_graph(graph_seed, num_tasks=num_tasks)
    schedule = generate_schedule(
        graph, [worker.name for worker in worker_pool()],
        fault_seed, CHAOS,
    )
    return graph, schedule


def probe_engine_scaling(workload, workdir: Path) -> Dict[str, float]:
    """Host time per task at 150 and at 1000 tasks: their ratio is the
    super-linearity an engine fix has to move."""
    from repro.chaos import random_task_graph

    from benchmarks.e2e.workloads import new_server

    rng = inputs.rng_for(workload.seed, "workflow-probe", 0)
    metrics = {}
    for size in (150, 1000):
        graph_seed, fault_seed = rng.getrandbits(31), rng.getrandbits(31)
        if workload.name == "workflow_chaos":
            graph, schedule = _chaos_recipe(graph_seed, size, fault_seed)
        else:
            graph = random_task_graph(graph_seed, num_tasks=size)
            schedule = None
        metrics[f"workflow.recovery.us_per_task_{size}"] = 1e6 * timed(
            lambda: new_server().run(graph, chaos=schedule)) / size
    return metrics


def probe_other_engine(workload, workdir: Path) -> Dict[str, float]:
    """``WorkflowServer`` on a 1000-task graph: the before-number for
    "one engine, with an empty fault schedule"."""
    from repro.chaos import random_task_graph
    from repro.workflow.server import WorkflowServer

    from benchmarks.e2e.workloads import worker_pool

    if workload.name != "workflow_plain":
        return {}
    rng = inputs.rng_for(workload.seed, "workflow-probe", 1)
    graph = random_task_graph(rng.getrandbits(31), num_tasks=1000)
    seconds = timed(lambda: WorkflowServer(worker_pool()).run(graph))
    return {"workflow.server.run_s": seconds,
            "workflow.server.us_per_task_1000": 1e6 * seconds / 1000}


def probe_journal(workload, workdir: Path) -> Dict[str, float]:
    """Journaled against unjournaled, and the obs tracer against none,
    each time on the same graph and fault schedule."""
    from repro.obs import observe, session
    from repro.workflow.journal import replay_journal
    from repro.workflow.runstore import RunStore

    from benchmarks.e2e.workloads import SNAPSHOT_EVERY, new_server

    if workload.name != "workflow_chaos":
        return {}
    store = RunStore(workdir / "runs")
    overhead = records = kilobytes = plain_s = observed_s = 0.0
    for index in _sample_indices(workload.ops, 3):
        spec = inputs.graph_input(workload.seed, index)
        recipe = (spec.graph_seed, spec.num_tasks, spec.fault_seed)

        graph, schedule = _chaos_recipe(*recipe)
        unjournaled = timed(
            lambda: new_server().run(graph, chaos=schedule))
        plain_s += unjournaled

        graph, schedule = _chaos_recipe(*recipe)
        run_id, journal = store.create_run(
            "probe", {"op": index}, snapshot_every=SNAPSHOT_EVERY)

        def journaled():
            with journal:
                new_server().run(graph, chaos=schedule, journal=journal)

        overhead += timed(journaled) - unjournaled
        _state, info = replay_journal(store.run_dir(run_id))
        records += info.records_total
        kilobytes += sum(
            path.stat().st_size
            for path in store.run_dir(run_id).iterdir()) / 1024.0

        graph, schedule = _chaos_recipe(*recipe)
        with observe(session(deterministic=False)):
            observed_s += timed(
                lambda: new_server().run(graph, chaos=schedule))
    return {
        "workflow.journal.overhead_s": overhead,
        "workflow.journal.records": records,
        "workflow.journal.kb": kilobytes,
        "obs.tracer_overhead_pct": 100.0 * (observed_s / plain_s - 1.0),
    }


def probe_store(workload, workdir: Path) -> Dict[str, float]:
    """Rows and on-disk size of the job store after the traced waves."""
    return {f"workflow.jobstore.{key}": value
            for key, value in workload.store_footprint().items()}


#: Probes by workload-name prefix, in the order they run.
PROBES = {
    "compile": (probe_cache_state, probe_ir, probe_pricing,
                probe_applications),
    "workflow": (probe_simulator, probe_engine_scaling,
                 probe_other_engine, probe_journal),
    "service": (probe_store,),
}
