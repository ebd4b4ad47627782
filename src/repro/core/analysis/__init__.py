"""Compile-time static analysis for the EVEREST SDK.

A generic dataflow fixpoint engine (:mod:`.dataflow`) and the concrete
analyses built on it, all reporting through the diagnostics leaf
(:mod:`repro.diagnostics`, re-exported here):

* :mod:`.taint` — static information-flow tracking against the
  ``secure`` dialect's policies;
* :mod:`.partition` — memory-partition legality and static bounds
  checking for kernel-form functions;
* :mod:`.absint` — interval abstract interpretation: value ranges for
  non-affine indices (MEM004), statically-dead constructs (LINT004)
  and interprocedural shape/dtype contracts (WF010/WF011), exposed as
  a reusable :class:`~repro.core.analysis.absint.AnalysisFacts`;
* :mod:`.perf` — static performance analysis: analytic work/traffic/II
  lower bounds (:class:`~repro.core.analysis.perf.StaticBounds`) and
  PERF001-PERF005 diagnostics; the DSE layer prices those bounds per
  knob point (:func:`repro.core.dse.cost_model.bound_for`);
* :mod:`.lints` — dead values, unreachable blocks, unused functions;
* :mod:`.wfcheck` — workflow-DAG structural linting;
* :mod:`.concurrency` — static race (RACE001-004) and deadlock
  (DL001-003) detection over workflow plans and resource specs.

:func:`analyze_module` is the one-call entry point used by the
compiler's pre-DSE gate and the ``repro lint`` CLI; each selected
pass runs under its own tracer span (category
:data:`ANALYSIS_CATEGORY`) so the gate shows up in Chrome traces like
the compiler and DSE phases do. :func:`analyze_module_cached` is the
incremental variant, memoized through
:mod:`repro.core.analysis.cache` keyed by the module's content digest.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.core.analysis.absint import (
    ANALYSIS_VERSION,
    AnalysisFacts,
    FunctionFacts,
    Interval,
    check_module_contracts,
    check_module_ranges,
    compute_facts,
    compute_function_facts,
    function_facts,
    partition_conflict,
)
from repro.core.analysis.cache import AnalysisCache, analysis_cache
from repro.core.analysis.concurrency import (
    CONCURRENCY_CHECKS,
    ResourceSpec,
    analyze_concurrency,
    check_task_graph_concurrency,
    lint_concurrency_spec,
)
from repro.core.analysis.dataflow import (
    BackwardAnalysis,
    DataflowAnalysis,
    DataflowState,
    FlagLattice,
    ForwardAnalysis,
    Lattice,
    Liveness,
    SetLattice,
    TaintPropagation,
)
from repro.core.analysis.lints import check_module_lints
from repro.core.analysis.partition import check_module_partitioning
from repro.core.analysis.perf import (
    StaticBounds,
    check_module_perf,
    compute_kernel_bounds,
    kernel_bounds,
)
from repro.core.analysis.taint import (
    check_function_taint,
    check_module_taint,
    check_pipeline_taint,
)
from repro.core.analysis.wfcheck import (
    TaskSpec,
    WorkerSpec,
    lint_workflow,
    lint_workflow_spec,
)
from repro.core.ir.digest import module_digest
from repro.core.store import decode, encode
from repro.diagnostics import (
    CODES,
    Diagnostic,
    Diagnostics,
    Severity,
    raise_if_errors,
)
from repro.obs import current_metrics, current_tracer

#: Names accepted by ``analyze_module(checks=...)`` / ``--only``.
ALL_CHECKS = ("taint", "partition", "lint", "absint", "shapes", "perf")

#: Tracer category for per-analysis-pass spans.
ANALYSIS_CATEGORY = "analysis.pass"


def analyze_module(
    module,
    diagnostics: Optional[Diagnostics] = None,
    checks: Optional[Iterable[str]] = None,
    facts: Optional[AnalysisFacts] = None,
) -> Diagnostics:
    """Run the IR analyses over a module; returns the diagnostics.

    ``checks`` restricts the run to a subset of :data:`ALL_CHECKS`.
    Pass precomputed ``facts`` to skip the abstract-interpretation
    sweep the partition and absint checks share.
    """
    diagnostics = diagnostics if diagnostics is not None else Diagnostics()
    selected = set(checks) if checks is not None else set(ALL_CHECKS)
    unknown = selected - set(ALL_CHECKS)
    if unknown:
        raise ValueError(
            f"unknown checks {sorted(unknown)}; "
            f"expected a subset of {list(ALL_CHECKS)}"
        )
    tracer = current_tracer()
    if facts is None and selected & {"partition", "absint", "perf"}:
        with tracer.span("analysis:facts", category=ANALYSIS_CATEGORY):
            facts = compute_facts(module)
    if "taint" in selected:
        with tracer.span("analysis:taint", category=ANALYSIS_CATEGORY):
            check_module_taint(module, diagnostics)
    if "partition" in selected:
        with tracer.span("analysis:partition",
                         category=ANALYSIS_CATEGORY):
            check_module_partitioning(module, diagnostics, facts=facts)
    if "lint" in selected:
        with tracer.span("analysis:lint", category=ANALYSIS_CATEGORY):
            check_module_lints(module, diagnostics)
    if "absint" in selected:
        with tracer.span("analysis:absint", category=ANALYSIS_CATEGORY):
            check_module_ranges(module, diagnostics, facts=facts)
    if "shapes" in selected:
        with tracer.span("analysis:shapes", category=ANALYSIS_CATEGORY):
            check_module_contracts(module, diagnostics)
    if "perf" in selected:
        with tracer.span("analysis:perf", category=ANALYSIS_CATEGORY):
            check_module_perf(module, diagnostics, facts=facts)
    return diagnostics


def analyze_module_cached(
    module,
    digest: Optional[str] = None,
    cache=None,
) -> Tuple[Diagnostics, Optional[AnalysisFacts], bool]:
    """Digest-memoized :func:`analyze_module`, every check.

    Returns ``(diagnostics, facts, hit)``. Results are keyed by the
    module's content digest plus the analysis version, so a structural
    change — or an analysis upgrade — always recomputes; a warm hit
    replays the stored diagnostics and facts without touching the IR.
    Cache traffic is published to the ambient metrics registry as
    ``analysis.cache_hits`` / ``analysis.cache_misses``.
    """
    cache = cache if cache is not None else analysis_cache()
    if digest is None:
        digest = module_digest(module)
    key = AnalysisCache.module_key(digest, ALL_CHECKS)
    metrics = current_metrics()
    entry = cache.read(key, _cached_entry)
    if entry is not None:
        metrics.counter(
            "analysis.cache_hits", "analysis cache hits",
        ).inc(1, layer="module")
        return (*entry, True)
    metrics.counter(
        "analysis.cache_misses", "analysis cache misses",
    ).inc(1, layer="module")
    facts = compute_facts(module)
    diagnostics = analyze_module(module, facts=facts)
    cache.put(key, {
        "diagnostics": [item.to_dict() for item in diagnostics],
        "facts": encode(facts),
    })
    return diagnostics, facts, False


def _cached_entry(payload) -> Tuple[Diagnostics, AnalysisFacts]:
    """An ``analyze_module_cached`` entry; a payload without its
    diagnostics and facts is rejected (a miss), not read as empty."""
    return (Diagnostics.from_dicts(payload["diagnostics"]),
            decode(AnalysisFacts, payload["facts"]))


__all__ = [
    "ALL_CHECKS",
    "ANALYSIS_CATEGORY",
    "ANALYSIS_VERSION",
    "AnalysisFacts",
    "FunctionFacts",
    "Interval",
    "analyze_module_cached",
    "check_module_contracts",
    "check_module_ranges",
    "compute_facts",
    "compute_function_facts",
    "function_facts",
    "partition_conflict",
    "BackwardAnalysis",
    "CODES",
    "CONCURRENCY_CHECKS",
    "ResourceSpec",
    "analyze_concurrency",
    "check_task_graph_concurrency",
    "lint_concurrency_spec",
    "DataflowAnalysis",
    "DataflowState",
    "Diagnostic",
    "Diagnostics",
    "FlagLattice",
    "ForwardAnalysis",
    "Lattice",
    "Liveness",
    "SetLattice",
    "Severity",
    "StaticBounds",
    "TaintPropagation",
    "TaskSpec",
    "WorkerSpec",
    "analyze_module",
    "check_function_taint",
    "check_module_lints",
    "check_module_partitioning",
    "check_module_perf",
    "check_module_taint",
    "compute_kernel_bounds",
    "kernel_bounds",
    "check_pipeline_taint",
    "lint_workflow",
    "lint_workflow_spec",
    "raise_if_errors",
]
