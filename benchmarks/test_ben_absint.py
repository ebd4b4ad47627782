"""Experiment ben-absint — interval analysis is cheap, caching pays.

Two claims gate the abstract-interpretation layer's place in the
pipeline:

* the cold sweep (value ranges + shape contracts) must stay a small
  fraction (< 20%) of the compile+DSE work it guards, same bar as
  ben-analysis;
* the digest-keyed incremental cache must make a warm re-analysis at
  least 5x faster than a cold one — otherwise the compiler's memoized
  gate is not worth its complexity.
"""

from __future__ import annotations

import time

from repro.core.analysis import analyze_module, analyze_module_cached
from repro.core.analysis.cache import AnalysisCache
from repro.core.compiler import EverestCompiler
from repro.core.ir.digest import module_digest
from repro.utils.tables import Table

from benchmarks.test_fig1_compilation_flow import SPACE, build_application

ABSINT_BUDGET_FRACTION = 0.20
MIN_WARM_SPEEDUP = 5.0


def _time(callable_, repeat=3):
    """Best-of-N wall time plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_ben_absint_cold_overhead(benchmark):
    """Interval + contract sweep < 20% of compile+DSE (fig1 suite)."""
    compiler = EverestCompiler(
        space=SPACE, emit_artifacts=False, static_checks=False,
    )
    compile_seconds, app = _time(
        lambda: compiler.compile(build_application()), repeat=1
    )
    module = app.module

    def run_absint():
        return analyze_module(module, checks=("absint", "shapes"))

    absint_seconds, diagnostics = _time(run_absint)
    benchmark(run_absint)

    table = Table(
        "ben-absint: interval-analysis cost vs compile+DSE (fig1)",
        ["phase", "seconds", "fraction"],
    )
    table.add_row("compile + DSE", f"{compile_seconds:.4f}", "1.00")
    table.add_row(
        "absint + shapes",
        f"{absint_seconds:.4f}",
        f"{absint_seconds / compile_seconds:.3f}",
    )
    table.show()

    assert not diagnostics.has_errors, diagnostics.render_text()
    assert absint_seconds < ABSINT_BUDGET_FRACTION * compile_seconds, (
        f"absint took {absint_seconds:.4f}s, more than "
        f"{ABSINT_BUDGET_FRACTION:.0%} of the {compile_seconds:.4f}s "
        f"compile+DSE time"
    )


def test_ben_absint_warm_cache_speedup(benchmark):
    """A warm digest-keyed hit replays >= 5x faster than a cold run."""
    app = EverestCompiler(
        space=SPACE, emit_artifacts=False, static_checks=False,
    ).compile(build_application())
    module = app.module
    digest = module_digest(module)

    def cold():
        # a fresh cache every repeat: every call is a true miss
        return analyze_module_cached(
            module, digest=digest, cache=AnalysisCache())

    warm_cache = AnalysisCache()
    analyze_module_cached(module, digest=digest, cache=warm_cache)

    def warm():
        return analyze_module_cached(
            module, digest=digest, cache=warm_cache)

    cold_seconds, (_, _, cold_hit) = _time(cold)
    warm_seconds, (_, _, warm_hit) = _time(warm)
    benchmark(warm)
    assert (cold_hit, warm_hit) == (False, True)

    speedup = cold_seconds / max(warm_seconds, 1e-9)
    table = Table(
        "ben-absint: incremental analysis cache",
        ["path", "seconds", "speedup"],
    )
    table.add_row("cold (miss)", f"{cold_seconds:.5f}", "1.0")
    table.add_row("warm (hit)", f"{warm_seconds:.5f}", f"{speedup:.1f}")
    table.show()

    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm hit only {speedup:.1f}x faster than the cold sweep; "
        f"the incremental cache must buy at least "
        f"{MIN_WARM_SPEEDUP:.0f}x"
    )
