"""Command-line interface to the EVEREST SDK.

Subcommands::

    python -m repro compile  KERNELS.edsl [--strategy ...] [--workers N]
    python -m repro synth    KERNELS.edsl --kernel NAME [--unroll N]
    python -m repro explore  KERNELS.edsl --kernel NAME [--workers N]
    python -m repro perf     KERNELS.edsl --kernel NAME [--format json]
    python -m repro emit     KERNELS.edsl --kernel NAME --what sycl|rtl|ir
    python -m repro lint     SPEC [--incremental] [--stats] [--workers N]
    python -m repro chaos    --graph-seed N --fault-seed M [--verify-replay]
    python -m repro run      SPEC [--trace PATH]
    python -m repro trace    SPEC --out trace.json [--clock logical|wall]
    python -m repro metrics  SPEC [--format text|json]
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
and only work that never reached its journaled execution point is
re-executed — the resumed trace digest is byte-identical to an
unbroken run. ``repro runs`` inspects and garbage-collects the store.

Commands that price design points (compile, explore, synth, emit, run,
trace, metrics) share a persistent content-addressed cost cache
(``~/.cache/repro-dse`` unless ``--cache-dir``/``--no-cache`` says
otherwise), so repeated invocations skip HLS re-synthesis of
already-priced variants. ``repro cache stats|clear`` inspects it.

``KERNELS.edsl`` is a file of kernel-DSL source (see
:mod:`repro.core.dsl.kernel_dsl`); a ``.py`` file embedding kernel-DSL
strings works everywhere a spec is accepted. The CLI is a thin veneer
over the library API, intended for quick experiments and the examples
in the README. The full flag reference is ``docs/CLI.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.analysis import (
    ALL_CHECKS,
    ANALYSIS_CATEGORY,
    CONCURRENCY_CHECKS,
    Diagnostics,
    analyze_module,
    lint_concurrency_spec,
    lint_workflow_spec,
)
from repro.core.analysis.cache import (
    AnalysisCache,
    configure_analysis_cache,
    default_analysis_cache_dir,
)
from repro.core.analysis.perf import kernel_bounds, nest_floors
from repro.core.analysis.specs import (
    expand_spec_files,
    load_targets_from_text,
    read_spec_text,
)
from repro.core.backend.sycl_gen import generate_sycl
from repro.core.dse import cache as dse_cache
from repro.core.dse.cost_model import (
    ArchitectureModel,
    prepare_variant_module,
    synthesize_variant,
)
from repro.core.dse.explorer import Explorer
from repro.core.dse.space import DesignSpace
from repro.core.dsl.kernel_dsl import compile_kernel, kernel_names
from repro.core.ir import print_module
from repro.core.ir.dialects import registered_dialects
from repro.core.ir.digest import module_digest
from repro.core.ir.verifier import verify_diagnostics
from repro.core.store import ContentStore, encode
from repro.core.variants import VariantKnobs
from repro.obs import (
    Observation,
    current_metrics,
    observe,
    session,
    validate_chrome_trace,
)
from repro.obs.tracer import Tracer
from repro.utils.tables import Table

# Function-level ``repro`` imports below load a subsystem that a single
# subcommand drives (the workflow service and run store, the traced
# driver with the runtime under it, the sanitizer), so the commands
# that compile, lint or explore do not pay for importing it.


def _read_source(path: str) -> str:
    """Kernel-DSL text of ``path``.

    ``.edsl`` files are taken verbatim; for Python files the embedded
    kernel-DSL strings are extracted, so the same example specs work
    for every subcommand.
    """
    from repro.obs.driver import load_kernel_sources

    return "\n".join(load_kernel_sources(path))


def _space_by_name(name: str) -> DesignSpace:
    if name == "small":
        return DesignSpace.small()
    if name == "thorough":
        return DesignSpace.thorough()
    raise SystemExit(f"unknown space {name!r}; use small or thorough")


def _cache_dir(args: argparse.Namespace, default):
    """Where the flags put a persistent cache: None (memory only) under
    ``--no-cache``, else ``--cache-dir`` or the ``default()`` store."""
    if getattr(args, "no_cache", False):
        return None
    return getattr(args, "cache_dir", None) or default()


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
    source = _read_source(args.file)
    module = compile_kernel(source)
    space = _space_by_name(args.space)
    table = Table(
        f"compilation report ({args.file})",
        ["kernel", "points", "feasible", "front", "best latency us",
         "best energy uJ"],
    )
    digest = module_digest(module)
    for name in kernel_names(source):
        explorer = Explorer(module, name, space, workers=args.workers,
                            workers_mode=args.workers_mode,
                            digest=digest)
        result = explorer.run(args.strategy)
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
    source = _read_source(args.file)
    module = compile_kernel(source)
    knobs = VariantKnobs(
        target="fpga", unroll=args.unroll,
        clock_hz=args.clock_mhz * 1e6,
    )
    print(synthesize_variant(module, args.kernel, knobs).report())
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    """Print the design-space table for one kernel."""
    _configure_dse_caches(args)
    source = _read_source(args.file)
    module = compile_kernel(source)
    space = _space_by_name(args.space)
    explorer = Explorer(module, args.kernel, space,
                        workers=args.workers,
                        workers_mode=args.workers_mode,
                        bound_guided=getattr(args, "bound_guided",
                                             False))
    before = dse_cache.cost_cache().stats.snapshot()
    result = explorer.run(args.strategy)
    table = Table(
        f"design space of {args.kernel!r} "
        f"({result.evaluations} points, {args.strategy})",
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
    if getattr(args, "bound_guided", False):
        print(
            f"bound-guided: skipped {explorer._bound_pruned} points "
            f"proved off-front by their analytic lower bound"
        )
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    """Static performance report (analytic bounds) for one kernel."""
    import json as json_module

    # Bounds persist in the same store ``repro lint --incremental``
    # uses, so a warm report (or a later bound-guided exploration of
    # the unchanged kernel) skips the derivation entirely.
    configure_analysis_cache(
        _cache_dir(args, default_analysis_cache_dir)
    )
    source = _read_source(args.file)
    module = compile_kernel(source)
    bounds = kernel_bounds(module, args.kernel)
    if bounds is None:
        raise SystemExit(
            f"no kernel named {args.kernel!r} in {args.file}"
        )
    if args.format == "json":
        print(json_module.dumps(
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
    source = _read_source(args.file)
    module = compile_kernel(source)
    if args.what == "ir":
        print(print_module(module))
        return 0
    knobs = (
        VariantKnobs(target="cpu", threads=4)
        if args.what == "sycl"
        else VariantKnobs(target="fpga", unroll=args.unroll)
    )
    if args.what == "rtl":
        print(synthesize_variant(module, args.kernel, knobs).rtl())
        return 0
    prepared = prepare_variant_module(module, args.kernel, knobs)
    if args.what == "sycl":
        print(generate_sycl(prepared, args.kernel))
    elif args.what == "lowered-ir":
        print(print_module(prepared))
    else:
        raise SystemExit(f"unknown emit target {args.what!r}")
    return 0


#: The argparse fields that fully determine a `repro run` deployment —
#: persisted in the run store's meta.json and restored verbatim on
#: --resume (for `repro chaos`: ``launcher.CHAOS_RECIPE_KEYS``).
_RUN_RECIPE_KEYS = ("file", "strategy", "clock", "workers",
                    "workers_mode")


def _open_durable_run(args: argparse.Namespace, kind: str,
                      recipe_keys) -> tuple:
    """Resolve the journal flags into ``(run_id, journal, resume)``.

    With ``--resume`` the run's persisted recipe overwrites the
    matching argparse fields, so the caller rebuilds the exact graph /
    pool / schedule the journal was written against. With
    ``--journal-dir`` / ``--run-id`` a fresh durable run is registered
    (recipe first, then journal) before any execution. Without any of
    the flags, returns ``(None, None, None)`` — plain volatile run.
    """
    from repro.workflow import RunStore

    if not (args.journal_dir or args.run_id or args.resume):
        return None, None, None
    store = RunStore(args.journal_dir)
    if args.resume:
        meta, state, journal = store.prepare_resume(
            args.resume, snapshot_every=args.snapshot_every,
        )
        if meta.get("kind") != kind:
            journal.close()
            raise SystemExit(
                f"run {args.resume!r} was recorded by "
                f"`repro {meta.get('kind')}`; resume it there"
            )
        for key, value in meta.get("meta", {}).items():
            setattr(args, key, value)
        return args.resume, journal, state
    recipe = {key: getattr(args, key) for key in recipe_keys}
    run_id, journal = store.create_run(
        kind, recipe, run_id=args.run_id,
        snapshot_every=args.snapshot_every,
    )
    return run_id, journal, None


def cmd_lint(args: argparse.Namespace) -> int:
    """Static analysis over DSL files, examples and workflow specs.

    Exit codes: 0 — no errors (warnings/notes allowed); 1 — at least
    one error-severity finding; 2 — a spec could not be loaded at all.

    Output is deterministic: files expand in sorted order and findings
    render fully sorted, so the same tree produces byte-identical
    reports on every run and every ``--workers`` count. With
    ``--incremental`` the per-file results are memoized (keyed by path,
    contents and selected checks) in a persistent store, so a warm run
    skips parsing, compiling and analyzing unchanged specs entirely;
    hit/miss traffic goes to stderr and the metrics registry, keeping
    stdout identical to a cold run.
    """
    from concurrent.futures import ThreadPoolExecutor

    workflow_checks = ("wf",) + CONCURRENCY_CHECKS
    known = set(ALL_CHECKS) | set(workflow_checks)
    selected = set()
    for entry in args.only or ():
        for token in entry.split(","):
            token = token.strip().lower()
            if token:
                selected.add(token)
    unknown = selected - known
    if unknown:
        print(
            f"repro lint: error: unknown check(s) {sorted(unknown)}; "
            f"choose from {sorted(known)}",
            file=sys.stderr,
        )
        return 2
    module_checks = (
        selected & set(ALL_CHECKS) if selected else set(ALL_CHECKS)
    )
    wf_selected = "wf" in selected if selected else True
    conc_checks = (
        selected & set(CONCURRENCY_CHECKS)
        if selected
        else set(CONCURRENCY_CHECKS)
    )

    files: List[str] = []
    for path in args.paths:
        files.extend(expand_spec_files(path))

    cache = None
    if getattr(args, "incremental", False):
        cache = configure_analysis_cache(
            _cache_dir(args, default_analysis_cache_dir)
        )
    check_signature = "|".join((
        ",".join(sorted(module_checks)),
        "wf" if wf_selected else "",
        ",".join(sorted(conc_checks)),
    ))

    def lint_file(path: str):
        """(diagnostics, target count, cache hit?) for one spec file."""
        diagnostics = Diagnostics()
        text = read_spec_text(path, diagnostics)
        if text is None:
            return diagnostics, 0, False
        key = None
        if cache is not None:
            # The path is part of the key: loader diagnostics anchor
            # on it, so one file's findings must never replay for an
            # identical copy elsewhere in the tree.
            key = AnalysisCache.source_key(
                f"{path}\x1f{text}", (check_signature,)
            )
            payload = cache.get(key)
            if payload is not None:
                return (
                    Diagnostics.from_dicts(
                        payload.get("diagnostics", [])
                    ),
                    int(payload.get("targets", 0)),
                    True,
                )
        targets = load_targets_from_text(path, text, diagnostics)
        for target in targets:
            try:
                if target.kind == "module":
                    if module_checks:
                        verify_diagnostics(target.module, diagnostics)
                        analyze_module(
                            target.module, diagnostics,
                            checks=sorted(module_checks),
                        )
                elif target.kind == "workflow":
                    if wf_selected:
                        lint_workflow_spec(target.spec, diagnostics)
                    if conc_checks:
                        lint_concurrency_spec(
                            target.spec, diagnostics,
                            checks=sorted(conc_checks),
                        )
            except Exception as exc:  # a crash must not hide the rest
                diagnostics.error(
                    "DSL001", f"cannot lint target: {exc}",
                    anchor=target.name, analysis="loader",
                )
        if key is not None:
            cache.put(key, {
                "diagnostics": [
                    item.to_dict() for item in diagnostics
                ],
                "targets": len(targets),
            })
        return diagnostics, len(targets), False

    stats_observation = None
    workers = max(1, getattr(args, "workers", 1))
    if getattr(args, "stats", False):
        # Per-pass timings need an enabled ambient tracer, which is
        # not safe to share across worker threads — stats runs serial.
        stats_observation = Observation(tracer=Tracer(enabled=True))
        workers = 1

    def run_files():
        if workers > 1 and len(files) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                return list(pool.map(lint_file, files))
        return [lint_file(path) for path in files]

    if stats_observation is not None:
        with observe(stats_observation):
            outcomes = run_files()
    else:
        outcomes = run_files()

    diagnostics = Diagnostics()
    total_targets = 0
    hits = misses = 0
    for file_diagnostics, count, hit in outcomes:
        diagnostics.extend(file_diagnostics)
        total_targets += count
        if hit:
            hits += 1
        else:
            misses += 1

    if cache is not None:
        metrics = current_metrics()
        metrics.counter(
            "analysis.cache_hits", "analysis cache hits",
        ).inc(hits, layer="source")
        metrics.counter(
            "analysis.cache_misses", "analysis cache misses",
        ).inc(misses, layer="source")

    load_failed = any(
        item.analysis == "loader" for item in diagnostics.errors
    )
    if args.suppress:
        diagnostics = diagnostics.suppress(args.suppress)
    if args.format == "json":
        print(diagnostics.to_json(indent=2))
    else:
        targets_word = (
            f"{total_targets} "
            f"target{'s' if total_targets != 1 else ''}"
        )
        print(diagnostics.render_text(f"lint: {targets_word}"))
    if cache is not None:
        lookups = hits + misses
        ratio = hits / lookups if lookups else 0.0
        print(
            f"analysis cache: {hits} hits, {misses} misses "
            f"({ratio:.0%} hit ratio)",
            file=sys.stderr,
        )
    if stats_observation is not None:
        durations = stats_observation.tracer.total_durations(
            ANALYSIS_CATEGORY
        )
        table = Table(
            "analysis passes", ["pass", "total s"],
        )
        for name in sorted(durations):
            table.add_row(name, durations[name])
        if not durations:
            table.add_row("(all results cached)", 0.0)
        print(table.render(), file=sys.stderr)
    if load_failed:
        return 2
    return 1 if diagnostics.has_errors else 0


def _print_sanitize_report(tracer, args, header: str) -> int:
    """Render the happens-before report; returns the exit code."""
    from repro.sanitize import sanitize_tracer

    findings = sanitize_tracer(tracer)
    suppress = getattr(args, "suppress", None)
    if suppress:
        findings = findings.suppress(suppress)
    if getattr(args, "format", "text") == "json":
        print(findings.to_json(indent=2))
    else:
        print(findings.render_text(header))
    return 1 if findings.has_errors else 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Replay a seeded chaos scenario and report the outcome."""
    from repro.workflow.launcher import CHAOS_RECIPE_KEYS, chaos_run

    run_id, journal, resume = _open_durable_run(
        args, "chaos", CHAOS_RECIPE_KEYS
    )
    if resume is not None and resume.finished:
        journal.close()
        print(f"run {run_id} already complete: "
              f"trace digest {resume.digest}")
        return 0
    # after _open_durable_run: --resume restores the recipe into args
    recipe = {key: getattr(args, key) for key in CHAOS_RECIPE_KEYS}
    obs = None
    try:
        if args.trace or args.sanitize:
            obs = session(deterministic=True)
            with observe(obs):
                graph, schedule, trace, stats = chaos_run(
                    recipe, journal=journal, resume=resume,
                )
            if args.trace:
                obs.tracer.write(args.trace)
        else:
            graph, schedule, trace, stats = chaos_run(
                recipe, journal=journal, resume=resume,
            )
    finally:
        if journal is not None:
            journal.close()
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
        _graph2, _schedule2, replay, _stats2 = chaos_run(recipe)
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
    """Compile a spec and deploy it on the reference ecosystem."""
    from repro.obs.driver import run_traced

    run_id, journal, resume = _open_durable_run(
        args, "run", _RUN_RECIPE_KEYS
    )
    if resume is not None and resume.finished:
        journal.close()
        print(f"run {run_id} already complete: "
              f"trace digest {resume.digest}")
        return 0
    _configure_dse_caches(args)
    try:
        run = run_traced(
            args.file, clock=args.clock, strategy=args.strategy,
            workers=args.workers, workers_mode=args.workers_mode,
            journal=journal, resume=resume,
        )
    finally:
        if journal is not None:
            journal.close()
    report = run.report
    table = Table(
        f"deployment of {args.file}",
        ["task", "placed on", "variant"],
    )
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
    if args.trace:
        run.observation.tracer.write(args.trace)
        print(f"chrome trace written to {args.trace}")
    if args.sanitize:
        return _print_sanitize_report(
            run.observation.tracer, args, f"sanitize: {args.file}"
        )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run a spec end to end and export the Chrome trace."""
    from repro.obs.driver import run_traced

    _configure_dse_caches(args)
    run = run_traced(
        args.file, clock=args.clock, strategy=args.strategy,
        workers=args.workers, workers_mode=args.workers_mode,
    )
    tracer = run.observation.tracer
    problems = validate_chrome_trace(tracer.to_chrome())
    if problems:
        for problem in problems:
            print(f"invalid trace: {problem}", file=sys.stderr)
        return 1
    tracer.write(args.out)
    spans = sum(1 for e in tracer.events if e.phase == "X")
    instants = sum(1 for e in tracer.events if e.phase == "i")
    counters = sum(1 for e in tracer.events if e.phase == "C")
    print(f"{args.out}: {spans} spans, {instants} instants, "
          f"{counters} counter samples ({args.clock} clock)")
    print("open it in https://ui.perfetto.dev or chrome://tracing")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Run a spec end to end and print the metrics snapshot."""
    from repro.obs.driver import run_traced

    _configure_dse_caches(args)
    run = run_traced(args.file, strategy=args.strategy,
                     workers=args.workers,
                     workers_mode=args.workers_mode)
    metrics = run.observation.metrics
    if args.format == "json":
        print(metrics.to_json(indent=2))
    else:
        print(metrics.render_text(f"metrics: {args.file}"))
    return 0


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


def cmd_runs(args: argparse.Namespace) -> int:
    """List, inspect or garbage-collect durable journaled runs."""
    from repro.workflow import RunStore

    store = RunStore(args.journal_dir)
    if args.action == "list":
        rows = store.list_runs()
        table = Table(
            f"durable runs in {store.root}",
            ["run id", "kind", "status", "records", "attempts",
             "digest"],
        )
        for row in rows:
            table.add_row(
                row.run_id, row.kind, row.status,
                row.info.records_total, row.attempts,
                row.state.digest or "-",
            )
        table.show()
        return 0
    if args.action == "show":
        if not args.run_id:
            raise SystemExit("repro runs show needs a RUN_ID")
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
    if args.action == "gc":
        removed = store.gc(completed_only=not args.all)
        kinds = "run(s)" if args.all else "completed run(s)"
        print(f"removed {len(removed)} {kinds} from {store.root}")
        for run_id in removed:
            print(f"  {run_id}")
        if args.db:
            from repro.workflow import JobStore

            live = [row.run_id for row in store.list_runs()]
            with JobStore(args.db) as jobs:
                finished, orphans = jobs.gc(live_run_ids=live)
            print(
                f"pruned {finished} finished and {orphans} orphaned "
                f"job row(s) from {args.db}"
            )
        return 0
    raise SystemExit(f"unknown runs action {args.action!r}")


def _service_specs(args: argparse.Namespace):
    """The job batch one ``repro service submit`` describes."""
    from repro.workflow import JobSpec

    specs = []
    for index in range(args.count):
        if args.kind == "chaos":
            spec = {
                "graph_seed": args.graph_seed + index * args.seed_step,
                "fault_seed": args.fault_seed,
                "tasks": args.tasks,
                "workers": args.pool,
            }
            if args.durable:
                spec["durable"] = True
        elif args.kind == "graph":
            spec = {
                "seed": args.graph_seed + index * args.seed_step,
                "tasks": args.tasks,
                "workers": args.pool,
            }
        else:
            spec = {"index": index}
        specs.append(JobSpec(
            name=f"{args.name_prefix}{index}", kind=args.kind,
            spec=spec, max_attempts=args.max_attempts,
        ))
    return specs


def cmd_service(args: argparse.Namespace) -> int:
    """Drive the multi-tenant workflow service (see docs/SERVICE.md)."""
    from repro.workflow import (
        JobStore,
        Launcher,
        RunStore,
        ServiceClient,
        default_jobstore_path,
    )
    from repro.workflow.jobstore import JOB_STATES, SCHEMA_VERSION

    db = args.db or default_jobstore_path()
    if args.action == "init":
        with JobStore(db):
            pass
        print(f"job store ready at {db} (schema v{SCHEMA_VERSION})")
        return 0
    if args.action == "submit":
        with ServiceClient(db, default_owner=args.owner) as client:
            result = client.submit(
                _service_specs(args), tags=tuple(args.tag),
                ready=not args.staged,
            )
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
            import json as json_module

            print(json_module.dumps(
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
        for state in JOB_STATES:
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
    if args.action == "cancel":
        if not (args.job or args.owner or args.filter_tag):
            raise SystemExit(
                "repro service cancel needs --job, --owner or --tag"
            )
        with ServiceClient(db) as client:
            cancelled, requested = client.cancel(
                args.job, owner=args.owner or None,
                tag=args.filter_tag,
            )
        print(
            f"cancelled {cancelled} queued job(s); requested "
            f"cancellation of {requested} running job(s)"
        )
        return 0
    raise SystemExit(f"unknown service action {args.action!r}")


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


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse parser for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cache_flags(command_parser: argparse.ArgumentParser) -> None:
        command_parser.add_argument(
            "--cache-dir", metavar="PATH", default=None,
            help="persistent DSE cost-cache directory (default: "
                 "~/.cache/repro-dse, XDG aware)",
        )
        command_parser.add_argument(
            "--no-cache", action="store_true",
            help="keep the cost cache in memory only for this run",
        )

    def add_workers_flag(command_parser: argparse.ArgumentParser) -> None:
        command_parser.add_argument(
            "--workers", type=int, default=1, metavar="N",
            help="evaluate DSE batches on N workers; any value "
                 "produces identical results (default: 1)",
        )
        command_parser.add_argument(
            "--workers-mode", choices=("thread", "process"),
            default="thread", dest="workers_mode",
            help="pool flavor for --workers: 'thread' (cheap, "
                 "GIL-bound) or 'process' (true parallelism); both "
                 "produce identical results (default: thread)",
        )

    def add_journal_flags(command_parser: argparse.ArgumentParser) -> None:
        command_parser.add_argument(
            "--journal-dir", metavar="PATH", default=None,
            help="run-store root for the durable write-ahead journal "
                 "(default: ~/.local/state/repro-runs, XDG aware); "
                 "giving any journal flag enables journaling",
        )
        command_parser.add_argument(
            "--run-id", metavar="ID", default=None,
            help="name the journaled run (default: generated)",
        )
        command_parser.add_argument(
            "--snapshot-every", type=int, default=100, metavar="N",
            help="snapshot the replay state every N journaled events "
                 "so resume cost is O(tail) (default: 100)",
        )
        command_parser.add_argument(
            "--resume", metavar="RUN_ID", default=None,
            help="resume a killed journaled run: reload its recipe, "
                 "replay the journal and re-execute only work that "
                 "never reached its journaled execution point",
        )

    p_compile = sub.add_parser(
        "compile", help="explore every kernel in a DSL file"
    )
    p_compile.add_argument("file")
    p_compile.add_argument("--space", default="small")
    p_compile.add_argument("--strategy", default="exhaustive")
    add_workers_flag(p_compile)
    add_cache_flags(p_compile)
    p_compile.set_defaults(func=cmd_compile)

    p_synth = sub.add_parser("synth", help="HLS report for one kernel")
    p_synth.add_argument("file")
    p_synth.add_argument("--kernel", required=True)
    p_synth.add_argument("--unroll", type=int, default=4)
    p_synth.add_argument("--clock-mhz", type=float, default=250.0)
    add_cache_flags(p_synth)
    p_synth.set_defaults(func=cmd_synth)

    p_explore = sub.add_parser(
        "explore", help="design-space table for one kernel"
    )
    p_explore.add_argument("file")
    p_explore.add_argument("--kernel", required=True)
    p_explore.add_argument("--space", default="small")
    p_explore.add_argument("--strategy", default="exhaustive")
    p_explore.add_argument(
        "--bound-guided", action="store_true",
        help="order points by their analytic lower bound and skip "
             "points the bound proves off-front (exhaustive strategy "
             "only; identical front, fewer pricings)",
    )
    add_workers_flag(p_explore)
    add_cache_flags(p_explore)
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
    p_perf.add_argument(
        "--cache-dir", metavar="PATH", default=None,
        help="persistent analysis-cache directory (default: "
             "~/.cache/repro-analysis, XDG aware)",
    )
    p_perf.add_argument(
        "--no-cache", action="store_true",
        help="keep the bounds cache in memory only for this run",
    )
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
    p_emit.add_argument("--unroll", type=int, default=4)
    add_cache_flags(p_emit)
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
        "--incremental", action="store_true",
        help="memoize per-file results in the persistent analysis "
             "cache (default: ~/.cache/repro-analysis, XDG aware; "
             "--cache-dir overrides, --no-cache keeps it in memory); "
             "a warm run skips unchanged files entirely",
    )
    p_lint.add_argument(
        "--stats", action="store_true",
        help="print a per-analysis-pass timing table to stderr "
             "(forces serial analysis)",
    )
    p_lint.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="lint files on N threads; any value produces identical "
             "output (default: 1)",
    )
    add_cache_flags(p_lint)
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
    p_chaos.add_argument("--policy", default="b-level")
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
    p_chaos.add_argument(
        "--trace", metavar="PATH", default=None,
        help="also export the run's Chrome trace JSON to PATH",
    )
    p_chaos.add_argument(
        "--sanitize", action="store_true",
        help="run the happens-before checker over the traced run; "
             "exits 1 when it finds unsuppressed races or "
             "acquire/release imbalances",
    )
    p_chaos.add_argument(
        "--format", default="text", choices=("text", "json"),
        help="sanitizer report rendering (default: text)",
    )
    p_chaos.add_argument(
        "--suppress", action="append", default=[], metavar="CODE",
        help="drop sanitizer findings with this code (repeatable)",
    )
    add_journal_flags(p_chaos)
    p_chaos.set_defaults(func=cmd_chaos)

    p_run = sub.add_parser(
        "run",
        help="compile a spec and deploy it on the reference ecosystem",
    )
    p_run.add_argument("file", help=".edsl or .py kernel spec")
    p_run.add_argument("--strategy", default="exhaustive")
    p_run.add_argument(
        "--clock", default="logical", choices=("logical", "wall"),
        help="trace clock when --trace is given (default: logical)",
    )
    p_run.add_argument(
        "--trace", metavar="PATH", default=None,
        help="also export the run's Chrome trace JSON to PATH",
    )
    p_run.add_argument(
        "--sanitize", action="store_true",
        help="run the happens-before checker over the traced run; "
             "exits 1 when it finds unsuppressed races or "
             "acquire/release imbalances",
    )
    p_run.add_argument(
        "--format", default="text", choices=("text", "json"),
        help="sanitizer report rendering (default: text)",
    )
    p_run.add_argument(
        "--suppress", action="append", default=[], metavar="CODE",
        help="drop sanitizer findings with this code (repeatable)",
    )
    add_workers_flag(p_run)
    add_cache_flags(p_run)
    add_journal_flags(p_run)
    p_run.set_defaults(func=cmd_run)

    p_trace = sub.add_parser(
        "trace",
        help="run a spec end to end and export a Chrome trace for "
             "Perfetto / chrome://tracing",
    )
    p_trace.add_argument("file", help=".edsl or .py kernel spec")
    p_trace.add_argument(
        "--out", default="trace.json",
        help="output path (default: trace.json)",
    )
    p_trace.add_argument(
        "--clock", default="logical", choices=("logical", "wall"),
        help="logical = deterministic (byte-identical re-runs), "
             "wall = real profiling (default: logical)",
    )
    p_trace.add_argument("--strategy", default="exhaustive")
    add_workers_flag(p_trace)
    add_cache_flags(p_trace)
    p_trace.set_defaults(func=cmd_trace)

    p_metrics = sub.add_parser(
        "metrics",
        help="run a spec end to end and print the metrics snapshot",
    )
    p_metrics.add_argument("file", help=".edsl or .py kernel spec")
    p_metrics.add_argument(
        "--format", default="text", choices=("text", "json"),
    )
    p_metrics.add_argument("--strategy", default="exhaustive")
    add_workers_flag(p_metrics)
    add_cache_flags(p_metrics)
    p_metrics.set_defaults(func=cmd_metrics)

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
    p_runs.add_argument(
        "--journal-dir", metavar="PATH", default=None,
        help="run-store root (default: ~/.local/state/repro-runs, "
             "XDG aware)",
    )
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

    def add_db_flag(action_parser: argparse.ArgumentParser) -> None:
        action_parser.add_argument(
            "--db", metavar="PATH", default=None,
            help="job-store database (default: "
                 "~/.local/state/repro-service/jobs.db, XDG aware)",
        )

    s_init = service_sub.add_parser(
        "init", help="create (or open) the shared job store",
    )
    add_db_flag(s_init)
    s_init.set_defaults(func=cmd_service)

    s_submit = service_sub.add_parser(
        "submit", help="bulk-submit a batch of tagged jobs",
    )
    add_db_flag(s_submit)
    s_submit.add_argument(
        "--count", type=int, default=1, metavar="N",
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
        "--tasks", type=int, default=9, metavar="N",
        help="tasks per generated graph (default: 9)",
    )
    s_submit.add_argument(
        "--pool", type=int, default=3, metavar="N",
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
        "--max-attempts", type=int, default=3, metavar="N",
        help="executions before a job is declared failed "
             "(default: 3)",
    )
    s_submit.add_argument(
        "--durable", action="store_true",
        help="chaos jobs: write-ahead journal each execution in the "
             "run store so a killed launcher's job resumes "
             "byte-identically",
    )
    s_submit.set_defaults(func=cmd_service)

    s_status = service_sub.add_parser(
        "status", help="per-state counts and a job listing",
    )
    add_db_flag(s_status)
    s_status.add_argument(
        "--owner", default="", metavar="NAME",
        help="only this tenant's jobs",
    )
    s_status.add_argument(
        "--tag", dest="filter_tag", default=None, metavar="TAG",
        help="only jobs carrying this tag",
    )
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
    s_status.set_defaults(func=cmd_service)

    s_launch = service_sub.add_parser(
        "launch",
        help="run a launcher: lease ready jobs in batches and "
             "execute them until the store drains",
    )
    add_db_flag(s_launch)
    s_launch.add_argument(
        "--launcher-id", default=None, metavar="ID",
        help="stable launcher name (default: generated)",
    )
    s_launch.add_argument(
        "--lease-size", type=int, default=8, metavar="N",
        help="jobs claimed per lease (default: 8)",
    )
    s_launch.add_argument(
        "--lease-ttl", type=float, default=60.0, metavar="S",
        help="seconds without a heartbeat before this launcher's "
             "jobs are re-leased (default: 60)",
    )
    s_launch.add_argument(
        "--heartbeat-every", type=int, default=4, metavar="N",
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
    s_launch.add_argument(
        "--journal-dir", metavar="PATH", default=None,
        help="run-store root for durable job journals (default: "
             "~/.local/state/repro-runs, XDG aware)",
    )
    s_launch.set_defaults(func=cmd_service)

    s_cancel = service_sub.add_parser(
        "cancel", help="cancel jobs by id, owner or tag",
    )
    add_db_flag(s_cancel)
    s_cancel.add_argument(
        "--job", action="append", type=int, default=[],
        metavar="ID", help="cancel this job id (repeatable)",
    )
    s_cancel.add_argument(
        "--owner", default="", metavar="NAME",
        help="cancel every queued job of this tenant",
    )
    s_cancel.add_argument(
        "--tag", dest="filter_tag", default=None, metavar="TAG",
        help="cancel every queued job carrying this tag",
    )
    s_cancel.set_defaults(func=cmd_service)

    p_info = sub.add_parser("info", help="SDK inventory")
    p_info.set_defaults(func=cmd_info)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # output piped into head/less that exited early: not an error
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
