"""Command-line interface to the EVEREST SDK.

Subcommands::

    python -m repro compile  KERNELS.edsl [--space small|thorough]
    python -m repro synth    KERNELS.edsl --kernel NAME [--unroll N]
    python -m repro explore  KERNELS.edsl --kernel NAME [--bound-guided]
    python -m repro perf     KERNELS.edsl --kernel NAME [--format json]
    python -m repro emit     KERNELS.edsl --kernel NAME --what sycl|rtl|ir
    python -m repro lint     SPEC [--only CHECK] [--stats]
    python -m repro chaos    --graph-seed N --fault-seed M [--verify-replay]
    python -m repro run      SPEC [--trace PATH] [--metrics text|json]
    python -m repro cache    stats|clear [--cache-dir PATH]
    python -m repro runs     list|show|gc [RUN_ID] [--journal-dir PATH]
    python -m repro service  init|submit|status|launch|cancel [--db PATH]
    python -m repro info

``service`` is the multi-tenant workflow service: a durable
SQLite-backed job store shared by independent sessions, bulk
submission of tagged jobs (``submit``), state queries (``status``),
and leasing launchers (``launch``) that drain the ready queue with
heartbeat-protected leases — a killed launcher's jobs are re-leased,
never lost. See ``docs/SERVICE.md`` for the operator guide.

``chaos`` and ``run`` accept ``--journal-dir``/``--run-id`` to make
the execution durable (a write-ahead journal plus periodic snapshots
under the run store) and ``--resume RUN_ID`` to pick a killed run back
up: the recipe is reloaded from the store, the journal is replayed,
and the whole run is re-executed, skipping only the task payloads the
journal proves already ran — the resumed trace digest is
byte-identical to an unbroken run. A ``--run-id`` the store already
holds resumes that run when it was recorded with the same recipe
(``WF009`` otherwise).
``repro runs`` inspects and garbage-collects the store.

Commands that price design points (compile, explore, synth, emit, run)
share a persistent content-addressed cost cache
(``~/.cache/repro-dse`` unless ``--cache-dir``/``--no-cache`` says
otherwise), so repeated invocations skip HLS re-synthesis of
already-priced variants. ``repro cache stats|clear`` inspects it.

``KERNELS.edsl`` is a file of kernel-DSL source (see
:mod:`repro.core.dsl.kernel_dsl`); a ``.py`` file embedding kernel-DSL
strings works everywhere a spec is accepted. The CLI is a thin veneer
over the library API, intended for quick experiments and the examples
in the README: it parses flags, hands them to the layer that decides,
and renders what comes back. A user error — any
:class:`~repro.errors.EverestError` — ends as one ``repro <command>:
error: <message>`` line on stderr and exit code 2. The full flag
reference is ``docs/CLI.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from typing import List, Optional

from repro.core.analysis import ANALYSIS_CATEGORY
from repro.core.analysis.cache import (
    configure_analysis_cache,
    default_analysis_cache_dir,
)
from repro.core.analysis.perf import kernel_bounds, nest_floors
from repro.core.analysis.specs import lint_files, load_kernel_sources
from repro.core.backend.sycl_gen import generate_sycl
from repro.core.dse import cache as dse_cache
from repro.core.dse.cost_model import (
    ArchitectureModel,
    prepare_variant_module,
    synthesize_variant,
)
from repro.core.dse.explorer import Explorer
from repro.core.dse.space import DesignSpace
from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.ir import Module, print_module
from repro.core.ir.dialects import registered_dialects
from repro.core.ir.digest import module_digest
from repro.core.ir.passes import LoopDirectivesPass
from repro.core.store import ContentStore, encode
from repro.core.variants import VariantKnobs
from repro.errors import AnalysisError, EverestError, IRError, JobStoreError
from repro.obs import (
    Observation,
    current_metrics,
    observe,
    session,
    validate_chrome_trace,
)
from repro.obs.tracer import Tracer
from repro.utils.tables import Table
from repro.utils.validation import check_non_negative, check_positive

# Function-level ``repro`` imports below load a subsystem that a single
# subcommand drives (the workflow service and run store, the traced
# driver with the runtime under it, the sanitizer), so the commands
# that compile, lint or explore do not pay for importing it.


def _compile_spec(path: str) -> Module:
    """The compiled kernel-DSL text of ``path`` (its kernels in
    declaration order): a ``.edsl`` file verbatim, the kernel-DSL
    strings embedded in a ``.py`` file, so the same example specs work
    for every subcommand."""
    return compile_kernel("\n".join(load_kernel_sources(path)))


def _cache_dir(args: argparse.Namespace, default):
    """Where the flags put a persistent cache: None (memory only) under
    ``--no-cache``, else ``--cache-dir`` or the ``default()`` store."""
    return None if args.no_cache else args.cache_dir or default()


def _configure_dse_caches(args: argparse.Namespace) -> None:
    """Install the cost cache the flags ask for — by default the shared
    on-disk store, so repeated CLI invocations reuse each other's
    synthesis work."""
    dse_cache.configure(
        cache_dir=_cache_dir(args, dse_cache.default_cache_dir)
    )


def cmd_compile(args: argparse.Namespace) -> int:
    """Explore every kernel in the spec; print a variant table."""
    _configure_dse_caches(args)
    module = _compile_spec(args.file)
    space = getattr(DesignSpace, args.space)()
    table = Table(
        f"compilation report ({args.file})",
        ["kernel", "points", "feasible", "front", "best latency us",
         "best energy uJ"],
    )
    digest = module_digest(module)
    for function in module.functions():
        name = function.name
        explorer = Explorer(module, name, space, digest=digest)
        result = explorer.run()
        best_latency = result.best_latency()
        best_energy = result.best_energy()
        table.add_row(
            name,
            result.evaluations,
            len(result.feasible),
            len(result.front),
            best_latency.cost.latency_s * 1e6,
            best_energy.cost.energy_j * 1e6,
        )
    table.show()
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    """Print the HLS report for one kernel."""
    _configure_dse_caches(args)
    module = _compile_spec(args.file)
    knobs = VariantKnobs(
        target="fpga", unroll=args.unroll,
        clock_hz=args.clock_mhz * 1e6,
    )
    print(synthesize_variant(module, args.kernel, knobs).report())
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    """Print the design-space table for one kernel."""
    _configure_dse_caches(args)
    module = _compile_spec(args.file)
    space = getattr(DesignSpace, args.space)()
    explorer = Explorer(module, args.kernel, space,
                        bound_guided=args.bound_guided)
    before = dse_cache.cost_cache().stats.snapshot()
    result = explorer.run()
    table = Table(
        f"design space of {args.kernel!r} "
        f"({result.evaluations} points, exhaustive)",
        ["variant", "latency us", "energy uJ", "feasible", "on front"],
    )
    front_ids = {v.variant_id for v in result.front}
    for variant in result.evaluated:
        table.add_row(
            variant.knobs.describe(),
            variant.cost.latency_s * 1e6,
            variant.cost.energy_j * 1e6,
            variant.cost.feasible,
            variant.variant_id in front_ids,
        )
    table.show()
    delta = dse_cache.cost_cache().stats.delta(before)
    if delta.lookups:
        print(
            f"cost cache: {delta.hits}/{delta.lookups} hits "
            f"({100.0 * delta.hits / delta.lookups:.0f}%)"
        )
    if args.bound_guided:
        print(
            f"bound-guided: skipped {explorer._bound_pruned} points "
            f"proved off-front by their analytic lower bound"
        )
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    """Static performance report (analytic bounds) for one kernel."""
    # Bounds persist in the analysis store the compile gate uses, so
    # a warm report (or a later bound-guided exploration of the
    # unchanged kernel) skips the derivation entirely.
    configure_analysis_cache(
        _cache_dir(args, default_analysis_cache_dir)
    )
    module = _compile_spec(args.file)
    bounds = kernel_bounds(module, args.kernel)
    if bounds is None:
        raise AnalysisError(
            f"no kernel named {args.kernel!r} in {args.file}"
        )
    if args.format == "json":
        print(json.dumps(
            encode(bounds), indent=2, sort_keys=True,
        ))
        return 0

    nest_rows = [
        (nest.anchor, nest.depth, nest.trip, nest.outer_iters, ii,
         nest.chain_latency, sum(nest.ops.values()) * nest.total_iters,
         cycles)
        for nest, ii, _, cycles in nest_floors(bounds)
    ]
    cycle_floor = sum(row[-1] for row in nest_rows)

    summary = Table(
        f"static bounds for {args.kernel!r}",
        ["property", "value"],
    )
    summary.add_row("verdict", f"{bounds.verdict} ({bounds.binding})")
    summary.add_row("work (flops est.)", bounds.work)
    summary.add_row("tensor data bytes", bounds.data_bytes)
    summary.add_row("streamed arg bytes", bounds.arg_bytes)
    summary.add_row("cycle floor @ defaults", cycle_floor)
    for op_class in sorted(bounds.op_counts):
        summary.add_row(
            f"ops[{op_class}]", bounds.op_counts[op_class]
        )
    summary.show()

    nests = Table(
        "loop-nest bounds (unroll 1)",
        ["nest", "depth", "trip", "outer iters", "II floor",
         "rec chain", "ops", "cycle floor"],
    )
    for row in nest_rows:
        nests.add_row(*row)
    nests.show()

    traffic = Table(
        "buffer traffic per invocation",
        ["buffer", "access sites", "bytes naive", "bytes moved",
         "reuse credit"],
    )
    for record in bounds.traffic:
        saved = record.bytes_naive - record.bytes_moved
        ratio = (
            saved / record.bytes_naive if record.bytes_naive else 0.0
        )
        traffic.add_row(
            record.buffer, record.accesses, record.bytes_naive,
            record.bytes_moved, f"{ratio:.0%}",
        )
    traffic.show()
    return 0


def cmd_emit(args: argparse.Namespace) -> int:
    """Print IR / lowered IR / SYCL / RTL for one kernel."""
    _configure_dse_caches(args)
    module = _compile_spec(args.file)
    if module.find_function(args.kernel) is None:
        raise IRError(f"no function named {args.kernel!r}")
    if args.what == "ir":
        print(print_module(module))
        return 0
    # The SYCL host code and the HLS input are one prepared module;
    # only HLS reads the unroll factor.
    knobs = VariantKnobs(target="fpga", unroll=args.unroll)
    if args.what == "rtl":
        print(synthesize_variant(module, args.kernel, knobs).rtl())
        return 0
    prepared = prepare_variant_module(module, args.kernel, knobs)
    if args.what == "sycl":
        print(generate_sycl(prepared, args.kernel))
        return 0
    prepared = prepared.clone()  # the loop directives, shown on a copy
    LoopDirectivesPass(args.unroll).run(prepared)
    print(print_module(prepared))
    return 0


#: The argparse fields that fully determine a `repro run` deployment —
#: persisted in the run store's meta.json and restored verbatim on
#: --resume (for `repro chaos`: ``launcher.CHAOS_RECIPE_KEYS``). A run
#: recorded with keys no longer listed here still resumes: see
#: :meth:`RunStore.open <repro.workflow.runstore.RunStore.open>`.
_RUN_RECIPE_KEYS = ("file", "clock")


def _run_durably(args: argparse.Namespace, kind: str, recipe_keys,
                 execute):
    """``execute(journal, resume)`` under the journal flags.

    Without any of them the run is volatile. Otherwise it opens through
    :meth:`RunStore.open <repro.workflow.runstore.RunStore.open>`:
    ``--resume`` — or a ``--run-id`` the store holds with the same
    recipe — resumes it with its recorded recipe restored into ``args``,
    and a run that already completed is reported instead of re-run.
    Returns ``(run_id, execute's result)``, or None when complete.
    """
    if not (args.journal_dir or args.run_id or args.resume):
        return None, execute(None, None)
    from repro.workflow import RunStore

    run_id, recipe, resume, journal = RunStore(args.journal_dir).open(
        kind, run_id=args.resume or args.run_id,
        recipe=None if args.resume else {
            key: getattr(args, key) for key in recipe_keys},
        snapshot_every=args.snapshot_every,
    )
    try:
        if resume is not None and resume.finished:
            print(f"run {run_id} already complete: "
                  f"trace digest {resume.digest}")
            return None
        vars(args).update(recipe)
        return run_id, execute(journal, resume)
    finally:
        journal.close()


def _run_traced(args: argparse.Namespace, journal=None, resume=None):
    """Install the cost cache the flags ask for, then compile and
    deploy ``args.file`` under an observation session."""
    from repro.obs.driver import run_traced

    _configure_dse_caches(args)
    return run_traced(
        args.file, clock=getattr(args, "clock", "logical"),
        journal=journal, resume=resume,
    )


def cmd_lint(args: argparse.Namespace) -> int:
    """Static analysis over DSL files, examples and workflow specs.

    Exit codes: 0 — no errors (warnings/notes allowed); 1 — at least
    one error-severity finding; 2 — a spec could not be loaded at all.

    Output is deterministic: the same tree produces byte-identical
    reports on every run. Lint keeps no cache: every run loads and
    checks every file.
    """
    stats = None
    if args.stats:
        # per-pass timings need an enabled ambient tracer
        stats = Observation(tracer=Tracer(enabled=True),
                            metrics=current_metrics())
    with observe(stats) if stats else nullcontext():
        run = lint_files(args.paths, only=args.only)
    diagnostics = run.diagnostics
    load_failed = any(
        item.analysis == "loader" for item in diagnostics.errors
    )
    if args.suppress:
        diagnostics = diagnostics.suppress(args.suppress)
    if args.format == "json":
        print(diagnostics.to_json(indent=2))
    else:
        targets_word = (
            f"{run.targets} target{'s' if run.targets != 1 else ''}"
        )
        print(diagnostics.render_text(f"lint: {targets_word}"))
    if stats is not None:
        durations = stats.tracer.total_durations(ANALYSIS_CATEGORY)
        table = Table(
            "analysis passes", ["pass", "total s"],
        )
        for name in sorted(durations):
            table.add_row(name, durations[name])
        if not durations:
            table.add_row("(no analysis pass ran)", 0.0)
        print(table.render(), file=sys.stderr)
    if load_failed:
        return 2
    return 1 if diagnostics.has_errors else 0


def _print_sanitize_report(tracer, args, header: str) -> int:
    """Render the happens-before report; returns the exit code."""
    from repro.sanitize import sanitize_tracer

    findings = sanitize_tracer(tracer)
    if args.suppress:
        findings = findings.suppress(args.suppress)
    if args.format == "json":
        print(findings.to_json(indent=2))
    else:
        print(findings.render_text(header))
    return 1 if findings.has_errors else 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Replay a seeded chaos scenario and report the outcome."""
    from repro.workflow.launcher import CHAOS_RECIPE_KEYS, chaos_run

    obs = (session(deterministic=True) if args.trace or args.sanitize
           else None)

    def execute(journal, resume):
        recipe = {key: getattr(args, key) for key in CHAOS_RECIPE_KEYS}
        with observe(obs) if obs else nullcontext():
            return chaos_run(recipe, journal=journal, resume=resume)

    outcome = _run_durably(args, "chaos", CHAOS_RECIPE_KEYS, execute)
    if outcome is None:
        return 0
    run_id, (graph, schedule, trace, stats) = outcome
    if args.trace:
        obs.tracer.write(args.trace)
    sanitize_header = (
        f"sanitize: chaos graph-seed={args.graph_seed} "
        f"fault-seed={args.fault_seed}"
    )
    if args.json:
        print(trace.to_json())
        if args.sanitize:
            return _print_sanitize_report(
                obs.tracer, args, sanitize_header
            )
        return 0
    table = Table(
        f"chaos run graph-seed={args.graph_seed} "
        f"fault-seed={args.fault_seed} ({schedule.describe()})",
        ["metric", "value"],
    )
    table.add_row("tasks completed",
                  f"{len({r.task for r in trace.records})}/{len(graph)}")
    table.add_row("makespan s", f"{trace.makespan:.4f}")
    for kind, count in sorted(trace.faults_by_kind().items()):
        table.add_row(f"fault: {kind}", count)
    for action, count in sorted(trace.recoveries_by_action().items()):
        table.add_row(f"recovery: {action}", count)
    table.add_row("retries", stats.retries)
    table.add_row("backoff seconds", f"{stats.backoff_seconds:.3f}")
    table.add_row("trace digest", trace.digest())
    table.show()
    if run_id:
        print(f"run id: {run_id}")
    if args.verify_replay:
        _graph2, _schedule2, replay, _stats2 = chaos_run(
            {key: getattr(args, key) for key in CHAOS_RECIPE_KEYS}
        )
        if replay.to_json() != trace.to_json():
            print("REPLAY MISMATCH: the same seed pair produced a "
                  "different trace")
            return 1
        print(f"replay verified: identical trace ({trace.digest()})")
    if args.trace:
        print(f"chrome trace written to {args.trace}")
    if args.sanitize:
        return _print_sanitize_report(obs.tracer, args, sanitize_header)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Compile a spec and deploy it on the reference ecosystem.

    ``--trace`` exports the run's Chrome trace once it validates (exit
    1 otherwise, nothing written); ``--metrics`` prints the metrics
    snapshot in place of the deployment summary."""
    outcome = _run_durably(
        args, "run", _RUN_RECIPE_KEYS,
        lambda journal, resume: _run_traced(args, journal, resume),
    )
    if outcome is None:
        return 0
    run_id, run = outcome
    tracer, metrics = run.observation.tracer, run.observation.metrics
    if args.trace:
        problems = validate_chrome_trace(tracer.to_chrome())
        for problem in problems:
            print(f"invalid trace: {problem}", file=sys.stderr)
        if problems:
            return 1
    if args.metrics == "json":
        print(metrics.to_json(indent=2))
    elif args.metrics == "text":
        print(metrics.render_text(f"metrics: {args.file}"))
    else:
        _print_deployment(args.file, run.report, run_id)
    if args.trace:
        tracer.write(args.trace)
        if not args.metrics:
            phases = [event.phase for event in tracer.events]
            print(f"chrome trace written to {args.trace}: {phases.count('X')}"
                  f" spans, {phases.count('i')} instants, {phases.count('C')}"
                  f" counter samples ({args.clock} clock)")
    if args.sanitize:
        return _print_sanitize_report(
            tracer, args, f"sanitize: {args.file}"
        )
    return 0


def _print_deployment(spec: str, report, run_id: Optional[str]) -> None:
    table = Table(f"deployment of {spec}", ["task", "placed on", "variant"])
    for task_name in sorted(report.placement):
        table.add_row(
            task_name,
            report.placement[task_name],
            report.selections.get(task_name, "-"),
        )
    table.show()
    print(f"makespan: {report.makespan * 1e3:.4f} ms  "
          f"energy: {report.energy.total_joules:.4f} J  "
          f"trace digest: {report.trace.digest()}")
    if run_id:
        print(f"run id: {run_id}")


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or clear the persistent DSE and analysis caches."""
    # Both caches are one kind-tagged store: a shared --cache-dir is
    # opened once, and every entry is reported under its own kind.
    directories = [args.cache_dir] if args.cache_dir else [
        dse_cache.default_cache_dir(), default_analysis_cache_dir()]
    for directory in directories:
        store = ContentStore(directory)
        if args.action == "clear":
            print(f"cleared {store.clear()} cached entries "
                  f"from {directory}")
            continue
        table = Table("cache store", ["property", "value"])
        table.add_row("directory", str(directory))
        table.add_row("entries", store.entry_count())
        table.add_row("disk bytes", store.disk_bytes())
        for kind, row in sorted(store.breakdown().items()):
            table.add_row(f"{kind} entries", row["entries"])
            table.add_row(f"{kind} disk bytes", row["disk_bytes"])
        table.show()
    return 0


def _existing_jobstore(db) -> None:
    """Only ``service init`` and ``service submit`` create a job store:
    any other action on a path without one is a user error (a mistyped
    ``--db`` would otherwise read, drain or prune a new empty store)."""
    if not os.path.exists(db):
        raise JobStoreError(
            f"no job store at {db} (`repro service init --db {db}` "
            f"creates one)")


def cmd_runs(args: argparse.Namespace) -> int:
    """List, inspect or garbage-collect durable journaled runs."""
    from repro.workflow import JobStore, RunStore

    if args.action == "gc" and args.db:
        _existing_jobstore(args.db)
    store = RunStore(args.journal_dir)
    if args.action == "list":
        table = Table(
            f"durable runs in {store.root}",
            ["run id", "kind", "status", "records", "attempts",
             "digest"],
        )
        for row in store.list_runs():
            table.add_row(
                row.run_id, row.kind, row.status,
                row.info.records_total, row.attempts,
                row.state.digest or "-",
            )
        table.show()
        return 0
    if args.action == "show":
        meta = store.load_meta(args.run_id)
        state, info = store.load_state(args.run_id)
        table = Table(f"run {args.run_id}", ["property", "value"])
        table.add_row("kind", meta.get("kind", "?"))
        table.add_row("attempts", meta.get("attempts", 1))
        table.add_row(
            "status", "complete" if state.finished else "in-flight"
        )
        table.add_row("journal records", info.records_total)
        table.add_row("replayed after snapshot", info.records_replayed)
        table.add_row(
            "snapshot seq",
            info.snapshot_seq if info.snapshot_seq >= 0 else "-",
        )
        table.add_row("torn tail", info.torn_tail)
        table.add_row("payload executions",
                      sum(state.exec_counts.values()))
        table.add_row("task completions", state.total_completions())
        table.add_row("faults seen", state.faults)
        table.add_row("recoveries", state.recoveries)
        table.add_row("sim time s", f"{state.last_time:.4f}")
        table.add_row("digest", state.digest or "-")
        for key, value in sorted(meta.get("meta", {}).items()):
            table.add_row(f"recipe: {key}", value)
        table.show()
        return 0
    removed = store.gc(completed_only=not args.all)
    kinds = "run(s)" if args.all else "completed run(s)"
    print(f"removed {len(removed)} {kinds} from {store.root}")
    for run_id in removed:
        print(f"  {run_id}")
    if args.db:
        live = [row.run_id for row in store.list_runs()]
        with JobStore(args.db) as jobs:
            finished, orphans = jobs.gc(live_run_ids=live)
        print(
            f"pruned {finished} finished and {orphans} orphaned "
            f"job row(s) from {args.db}"
        )
    return 0


def _job_payload(args: argparse.Namespace, index: int) -> dict:
    """The spec of job ``index`` in one ``repro service submit``."""
    seed = args.graph_seed + index * args.seed_step
    if args.kind == "chaos":
        spec = {"graph_seed": seed, "fault_seed": args.fault_seed,
                "tasks": args.tasks, "workers": args.pool}
        if args.durable:
            spec["durable"] = True
        return spec
    if args.kind == "graph":
        return {"seed": seed, "tasks": args.tasks, "workers": args.pool}
    return {"index": index}


def cmd_service(args: argparse.Namespace) -> int:
    """Drive the multi-tenant workflow service (see docs/SERVICE.md)."""
    from repro.workflow import Launcher, RunStore, ServiceClient, jobstore

    db = args.db or jobstore.default_jobstore_path()
    if args.action not in ("init", "submit"):
        _existing_jobstore(db)
    if args.action == "init":
        with jobstore.JobStore(db):
            pass
        print(f"job store ready at {db} "
              f"(schema v{jobstore.SCHEMA_VERSION})")
        return 0
    if args.action == "submit":
        specs = [
            jobstore.JobSpec(
                name=f"{args.name_prefix}{index}", kind=args.kind,
                spec=_job_payload(args, index),
                max_attempts=args.max_attempts,
            )
            for index in range(args.count)
        ]
        with ServiceClient(db, default_owner=args.owner) as client:
            result = client.submit(specs, tags=tuple(args.tag),
                                   ready=not args.staged)
        state = "staged" if args.staged else "ready"
        print(
            f"submitted {len(result.inserted)} {state} job(s), "
            f"{len(result.duplicates)} duplicate(s) ignored"
        )
        return 0
    if args.action == "status":
        with ServiceClient(db) as client:
            counts = client.counts(owner=args.owner or None,
                                   tag=args.filter_tag)
            jobs = client.jobs(
                state=args.state, owner=args.owner or None,
                tag=args.filter_tag, limit=args.limit,
            )
        if args.json:
            print(json.dumps(
                {
                    "counts": counts,
                    "jobs": [
                        {
                            "id": job.id, "name": job.name,
                            "owner": job.owner, "kind": job.kind,
                            "state": job.state,
                            "attempts": job.attempts,
                            "tags": list(job.tags),
                            "result": job.result,
                        }
                        for job in jobs
                    ],
                },
                indent=2, sort_keys=True,
            ))
            return 0
        table = Table(
            f"job store {db}", ["state", "jobs"],
        )
        for state in jobstore.JOB_STATES:
            table.add_row(state, counts[state])
        table.show()
        if jobs:
            table = Table(
                "jobs (oldest first)",
                ["id", "name", "owner", "kind", "state", "attempts",
                 "digest"],
            )
            for job in jobs:
                digest = (job.result or {}).get("digest", "-")
                table.add_row(job.id, job.name, job.owner or "-",
                              job.kind, job.state, job.attempts,
                              digest)
            table.show()
        return 0
    if args.action == "launch":
        launcher = Launcher(
            db,
            launcher_id=args.launcher_id,
            lease_size=args.lease_size,
            lease_ttl_s=args.lease_ttl,
            heartbeat_every=args.heartbeat_every,
            run_store=RunStore(args.journal_dir),
        )
        stats = launcher.run(
            max_jobs=args.max_jobs, exit_on_idle=args.exit_on_idle,
        )
        print(
            f"launcher {launcher.launcher_id}: "
            f"{stats.completed} completed, {stats.failed} failed, "
            f"{stats.cancelled} cancelled over {stats.leases} "
            f"lease(s)"
        )
        return 1 if stats.failed else 0
    with ServiceClient(db) as client:
        cancelled, requested = client.cancel(
            args.job, owner=args.owner or None, tag=args.filter_tag,
        )
    print(
        f"cancelled {cancelled} queued job(s); requested "
        f"cancellation of {requested} running job(s)"
    )
    return 0


def cmd_info(_args: argparse.Namespace) -> int:
    """Print the SDK inventory (dialects, default target)."""
    print("EVEREST SDK reproduction")
    print("dialects:")
    for name, dialect in sorted(registered_dialects().items()):
        print(f"  {name:10s} {len(dialect.ops):3d} ops  "
              f"{dialect.description}")
    model = ArchitectureModel()
    print(f"default target: {model.name}, "
          f"{model.cpu.cores}x {model.cpu.name} + FPGA role "
          f"{model.fpga_role_capacity.luts} LUTs")
    return 0


def _checked(kind, check, what: str):
    """An argparse ``type``: ``kind(text)`` that ``check`` (a
    :mod:`repro.utils.validation` guard) accepts, so a value the
    library would reject ends at its flag (``invalid <what> value``),
    not in a traceback."""
    def parse(text: str):
        return check(what, kind(text))
    parse.__name__ = what
    return parse


def _policy(name: str) -> str:
    """An argparse ``type``: a scheduler policy name."""
    from repro.workflow.scheduler import POLICIES

    if name not in POLICIES:
        raise argparse.ArgumentTypeError(
            f"unknown policy {name!r}; expected one of {list(POLICIES)}")
    return name


_POSITIVE_INT = _checked(int, check_positive, "positive int")
_POSITIVE_FLOAT = _checked(float, check_positive, "positive float")
_NON_NEGATIVE_INT = _checked(int, check_non_negative, "non-negative int")


def _add_cache_flags(parser: argparse.ArgumentParser,
                     store: str = "dse") -> None:
    """``--cache-dir`` / ``--no-cache`` for the ``repro-<store>``
    cache (``dse``: the cost cache; ``analysis``: the analysis one)."""
    what = "cost" if store == "dse" else store
    parser.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help=f"persistent {what}-cache directory (default: "
             f"~/.cache/repro-{store}, XDG aware)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help=f"keep the {what} cache in memory only for this run",
    )


def _add_space_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--space", default="small",
                        choices=("small", "thorough"))


def _add_journal_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--journal-dir", metavar="PATH", default=None,
        help="run-store root (default: ~/.local/state/repro-runs, "
             "XDG aware)",
    )


def _add_journal_flags(parser: argparse.ArgumentParser) -> None:
    """The durable-run flags; giving any of them journals the run."""
    _add_journal_dir(parser)
    parser.add_argument(
        "--run-id", metavar="ID", default=None,
        help="name the journaled run (default: generated); an "
             "existing run of the same recipe resumes",
    )
    parser.add_argument(
        "--snapshot-every", type=_NON_NEGATIVE_INT, default=100, metavar="N",
        help="snapshot the replay state every N journaled events "
             "so resume cost is O(tail); 0 takes no snapshots "
             "(default: 100)",
    )
    parser.add_argument(
        "--resume", metavar="RUN_ID", default=None,
        help="resume a killed journaled run: reload its recipe, "
             "replay the journal and re-execute the run, skipping "
             "the task payloads it proves already ran",
    )


def _add_report_flags(parser: argparse.ArgumentParser) -> None:
    """``--trace`` plus the sanitizer trio of a traced run."""
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="also export the run's Chrome trace JSON to PATH",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="run the happens-before checker over the traced run; "
             "exits 1 when it finds unsuppressed races or "
             "acquire/release imbalances",
    )
    parser.add_argument(
        "--format", default="text", choices=("text", "json"),
        help="sanitizer report rendering (default: text)",
    )
    parser.add_argument(
        "--suppress", action="append", default=[], metavar="CODE",
        help="drop sanitizer findings with this code (repeatable)",
    )


def _add_job_filters(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--owner", default="", metavar="NAME",
        help="select this tenant's jobs",
    )
    parser.add_argument(
        "--tag", dest="filter_tag", default=None, metavar="TAG",
        help="select jobs carrying this tag",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse parser for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser(
        "compile", help="explore every kernel in a DSL file"
    )
    p_compile.add_argument("file")
    _add_space_flags(p_compile)
    _add_cache_flags(p_compile)
    p_compile.set_defaults(func=cmd_compile)

    p_synth = sub.add_parser("synth", help="HLS report for one kernel")
    p_synth.add_argument("file")
    p_synth.add_argument("--kernel", required=True)
    p_synth.add_argument("--unroll", type=_POSITIVE_INT, default=4)
    p_synth.add_argument("--clock-mhz", type=_POSITIVE_FLOAT, default=250.0)
    _add_cache_flags(p_synth)
    p_synth.set_defaults(func=cmd_synth)

    p_explore = sub.add_parser(
        "explore", help="design-space table for one kernel"
    )
    p_explore.add_argument("file")
    p_explore.add_argument("--kernel", required=True)
    _add_space_flags(p_explore)
    p_explore.add_argument(
        "--bound-guided", action="store_true",
        help="order points by their analytic lower bound and skip "
             "points the bound proves off-front (identical front, "
             "fewer pricings)",
    )
    _add_cache_flags(p_explore)
    p_explore.set_defaults(func=cmd_explore)

    p_perf = sub.add_parser(
        "perf",
        help="static performance report for one kernel: analytic "
             "work/traffic/II lower bounds and the roofline verdict",
    )
    p_perf.add_argument("file")
    p_perf.add_argument("--kernel", required=True)
    p_perf.add_argument(
        "--format", default="text", choices=("text", "json"),
        help="report rendering (default: text)",
    )
    _add_cache_flags(p_perf, "analysis")
    p_perf.set_defaults(func=cmd_perf)

    p_emit = sub.add_parser(
        "emit", help="print IR / SYCL / RTL for one kernel"
    )
    p_emit.add_argument("file")
    p_emit.add_argument("--kernel", required=True)
    p_emit.add_argument(
        "--what", default="ir",
        choices=("ir", "lowered-ir", "sycl", "rtl"),
    )
    p_emit.add_argument("--unroll", type=_POSITIVE_INT, default=4)
    _add_cache_flags(p_emit)
    p_emit.set_defaults(func=cmd_emit)

    p_lint = sub.add_parser(
        "lint",
        help="static analysis (taint, partition legality, DAG lints) "
             "over DSL files, examples and workflow specs",
    )
    p_lint.add_argument(
        "paths", nargs="+",
        help=".edsl / .ir / .py / .json files or directories of them",
    )
    p_lint.add_argument(
        "--format", default="text", choices=("text", "json"),
        help="diagnostic rendering (default: text)",
    )
    p_lint.add_argument(
        "--suppress", action="append", default=[], metavar="CODE",
        help="drop findings with this code (repeatable)",
    )
    p_lint.add_argument(
        "--only", action="append", default=[], metavar="CHECK",
        help="restrict checks to a comma-separated subset of "
             "taint/partition/lint/absint/shapes/perf (IR) and "
             "wf/race/dl (workflow specs); repeatable, "
             "case-insensitive",
    )
    p_lint.add_argument(
        "--stats", action="store_true",
        help="print a per-analysis-pass timing table to stderr",
    )
    p_lint.set_defaults(func=cmd_lint)

    p_chaos = sub.add_parser(
        "chaos",
        help="replay a seeded fault-injection scenario on the "
             "resilient workflow server",
    )
    p_chaos.add_argument("--graph-seed", type=int, default=0)
    p_chaos.add_argument("--fault-seed", type=int, default=0)
    p_chaos.add_argument("--tasks", type=int, default=12)
    p_chaos.add_argument("--workers", type=int, default=3)
    p_chaos.add_argument("--policy", type=_policy, default="b-level")
    p_chaos.add_argument("--crashes", type=int, default=1)
    p_chaos.add_argument("--link-faults", type=int, default=1)
    p_chaos.add_argument("--reconfig-faults", type=int, default=1)
    p_chaos.add_argument("--stragglers", type=int, default=1)
    p_chaos.add_argument("--task-faults", type=int, default=1)
    p_chaos.add_argument(
        "--json", action="store_true",
        help="print the serialized trace instead of the summary table",
    )
    p_chaos.add_argument(
        "--verify-replay", action="store_true",
        help="run the scenario twice and fail unless the traces are "
             "byte-identical",
    )
    _add_report_flags(p_chaos)
    _add_journal_flags(p_chaos)
    p_chaos.set_defaults(func=cmd_chaos)

    p_run = sub.add_parser(
        "run",
        help="compile a spec and deploy it on the reference ecosystem",
    )
    p_run.add_argument("file", help=".edsl or .py kernel spec")
    p_run.add_argument(
        "--clock", default="logical", choices=("logical", "wall"),
        help="trace clock: logical = deterministic (byte-identical "
             "re-runs), wall = real profiling (default: logical)",
    )
    p_run.add_argument(
        "--metrics", default=None, choices=("text", "json"),
        help="print the run's metrics snapshot instead of the "
             "deployment summary",
    )
    _add_report_flags(p_run)
    _add_cache_flags(p_run)
    _add_journal_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_cache = sub.add_parser(
        "cache",
        help="inspect or clear the persistent DSE cost and analysis "
             "caches",
    )
    p_cache.add_argument(
        "action", choices=("stats", "clear"),
        help="stats: entry count and size; clear: drop every entry",
    )
    p_cache.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="cache directory (default: both ~/.cache/repro-dse and "
             "~/.cache/repro-analysis, XDG aware)",
    )
    p_cache.set_defaults(func=cmd_cache)

    p_runs = sub.add_parser(
        "runs",
        help="list, inspect or garbage-collect durable journaled runs",
    )
    p_runs.add_argument(
        "action", choices=("list", "show", "gc"),
        help="list: one row per run; show: full state of one run; "
             "gc: delete completed runs (--all: every run)",
    )
    p_runs.add_argument(
        "run_id", nargs="?", default=None,
        help="run id (required by show)",
    )
    _add_journal_dir(p_runs)
    p_runs.add_argument(
        "--all", action="store_true",
        help="gc: also remove in-flight (crashed, resumable) runs",
    )
    p_runs.add_argument(
        "--db", metavar="PATH", default=None,
        help="gc: also prune the service job store at PATH — finished "
             "rows plus jobs bound to runs the gc removed",
    )
    p_runs.set_defaults(func=cmd_runs)

    p_service = sub.add_parser(
        "service",
        help="multi-tenant workflow service: durable job store, bulk "
             "submission, leasing launchers (docs/SERVICE.md)",
    )
    service_sub = p_service.add_subparsers(dest="action",
                                           required=True)

    def add_action(name: str, help_text: str) -> argparse.ArgumentParser:
        action = service_sub.add_parser(name, help=help_text)
        action.add_argument(
            "--db", metavar="PATH", default=None,
            help="job-store database (default: "
                 "~/.local/state/repro-service/jobs.db, XDG aware)",
        )
        action.set_defaults(func=cmd_service)
        return action

    add_action("init", "create (or open) the shared job store")

    s_submit = add_action("submit", "bulk-submit a batch of tagged jobs")
    s_submit.add_argument(
        "--count", type=_POSITIVE_INT, default=1, metavar="N",
        help="number of jobs in the batch (default: 1)",
    )
    s_submit.add_argument(
        "--kind", default="chaos",
        choices=("noop", "graph", "chaos"),
        help="job payload: noop (marker), graph (seeded task graph), "
             "chaos (seeded fault-injection run; default)",
    )
    s_submit.add_argument(
        "--name-prefix", default="job-", metavar="PFX",
        help="job names are PFX0..PFX<count-1> (default: job-)",
    )
    s_submit.add_argument(
        "--graph-seed", type=int, default=0, metavar="N",
        help="base graph seed; job i uses N + i*seed-step "
             "(default: 0)",
    )
    s_submit.add_argument(
        "--seed-step", type=int, default=1, metavar="N",
        help="per-job graph-seed increment (default: 1)",
    )
    s_submit.add_argument(
        "--fault-seed", type=int, default=0, metavar="N",
        help="chaos jobs: fault schedule seed (default: 0)",
    )
    s_submit.add_argument(
        "--tasks", type=_POSITIVE_INT, default=9, metavar="N",
        help="tasks per generated graph (default: 9)",
    )
    s_submit.add_argument(
        "--pool", type=_POSITIVE_INT, default=3, metavar="N",
        help="simulated workers per job execution (default: 3)",
    )
    s_submit.add_argument(
        "--owner", default="", metavar="NAME",
        help="tenant the jobs belong to (default: anonymous)",
    )
    s_submit.add_argument(
        "--tag", action="append", default=[], metavar="TAG",
        help="tag every job in the batch (repeatable)",
    )
    s_submit.add_argument(
        "--staged", action="store_true",
        help="insert as staged (not leasable) instead of ready",
    )
    s_submit.add_argument(
        "--max-attempts", type=_POSITIVE_INT, default=3, metavar="N",
        help="executions before a job is declared failed "
             "(default: 3)",
    )
    s_submit.add_argument(
        "--durable", action="store_true",
        help="chaos jobs: write-ahead journal each execution in the "
             "run store so a killed launcher's job resumes "
             "byte-identically",
    )

    s_status = add_action("status", "per-state counts and a job listing")
    _add_job_filters(s_status)
    s_status.add_argument(
        "--state", default=None, metavar="STATE",
        help="only jobs in this state (staged/ready/running/done/"
             "failed/cancelled)",
    )
    s_status.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="job rows to list (default: 20)",
    )
    s_status.add_argument(
        "--json", action="store_true",
        help="machine-readable counts + jobs instead of tables",
    )

    s_launch = add_action(
        "launch",
        "run a launcher: lease ready jobs in batches and execute them "
        "until the store drains",
    )
    s_launch.add_argument(
        "--launcher-id", default=None, metavar="ID",
        help="stable launcher name (default: generated)",
    )
    s_launch.add_argument(
        "--lease-size", type=_POSITIVE_INT, default=8, metavar="N",
        help="jobs claimed per lease (default: 8)",
    )
    s_launch.add_argument(
        "--lease-ttl", type=_POSITIVE_FLOAT, default=60.0, metavar="S",
        help="seconds without a heartbeat before this launcher's "
             "jobs are re-leased (default: 60)",
    )
    s_launch.add_argument(
        "--heartbeat-every", type=_POSITIVE_INT, default=4, metavar="N",
        help="jobs executed between lease heartbeats (default: 4)",
    )
    s_launch.add_argument(
        "--max-jobs", type=int, default=None, metavar="N",
        help="exit after executing N jobs (default: drain)",
    )
    s_launch.add_argument(
        "--exit-on-idle", action="store_true",
        help="exit at the first empty lease instead of polling for "
             "other launchers' jobs to expire back",
    )
    _add_journal_dir(s_launch)

    s_cancel = add_action("cancel", "cancel jobs by id, owner or tag")
    s_cancel.add_argument(
        "--job", action="append", type=int, default=[],
        metavar="ID", help="cancel this job id (repeatable)",
    )
    _add_job_filters(s_cancel)

    p_info = sub.add_parser("info", help="SDK inventory")
    p_info.set_defaults(func=cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    A user error — any :class:`~repro.errors.EverestError` a command
    raises — is one ``repro <command>: error: <message>`` line on
    stderr and exit code 2.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EverestError as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # output piped into head/less that exited early: not an error
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
