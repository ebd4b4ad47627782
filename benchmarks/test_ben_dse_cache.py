"""Experiment ben-dse-cache — the content-hashed cost cache pays off.

The evaluation engine memoizes ``(module digest, kernel, knobs, model)``
→ cost in a persistent on-disk store, so a second exploration of the
same kernel — here modeled as a fresh invocation: reconfigured caches,
empty memory, same cache directory — skips every HLS re-synthesis. The
claim quantified: a warm re-exploration is at least 5x faster than the
cold one and serves at least 90% of its lookups from the cache, while
producing byte-identical results; and a whole warm *compile* — explore
and emit — calls the HLS driver zero times, because each cached
estimate carries the bitstream the packager ships.
"""

from __future__ import annotations

import time

import pytest

from repro.core.compiler import EverestCompiler
from repro.core.dse.cache import (
    DEFAULT_PREPARED_CAPACITY,
    clear_caches,
    configure,
    cost_cache,
)
from repro.core.dse.explorer import Explorer
from repro.core.dse.space import DesignSpace
from repro.core.dsl.kernel_dsl import compile_kernel
from repro.obs.driver import pipeline_from_sources
from repro.utils.tables import Table

KERNEL = """
kernel score(X: tensor<1024xf32>, G: tensor<1024xf32>)
        -> tensor<1024xf32> {
  Y = sigmoid(exp(X) * G + X)
  return Y
}
"""

#: FPGA-heavy space: most points run the pass pipeline + HLS, which is
#: exactly the work the cache is supposed to amortize.
SPACE = DesignSpace(
    targets=("cpu", "fpga"),
    threads=(1, 2, 4, 8),
    unrolls=(1, 2, 4, 8, 16),
    tiles=(0, 8),
    memory_strategies=("auto", "cyclic", "none"),
    clocks_hz=(150e6, 250e6),
)

MIN_SPEEDUP = 5.0
MIN_HIT_RATIO = 0.90


@pytest.fixture
def cache_dir(tmp_path):
    """A throwaway persistent cache directory; the library default
    (memory-only) is restored afterwards."""
    yield tmp_path / "repro-dse"
    configure(cache_dir=None)
    clear_caches()


def _explore(module):
    return Explorer(module, "score", space=SPACE).run("exhaustive")


def test_ben_dse_cache_warm_speedup(cache_dir, benchmark):
    """Warm re-exploration: >= 5x faster, >= 90% cache hits."""
    module = compile_kernel(KERNEL)

    # Cold invocation: configured cache directory, nothing in it.
    configure(cache_dir=cache_dir,
              prepared_capacity=DEFAULT_PREPARED_CAPACITY)
    clear_caches()
    start = time.perf_counter()
    cold_result = _explore(module)
    cold_seconds = time.perf_counter() - start

    # Warm invocation: fresh in-memory state (as a new process would
    # have), same directory on disk.
    configure(cache_dir=cache_dir,
              prepared_capacity=DEFAULT_PREPARED_CAPACITY)
    start = time.perf_counter()
    warm_result = _explore(module)
    warm_seconds = time.perf_counter() - start
    stats = cost_cache().stats.snapshot()

    benchmark(lambda: _explore(module))

    speedup = cold_seconds / max(warm_seconds, 1e-9)
    table = Table(
        f"ben-dse-cache: cold vs warm exploration "
        f"({cold_result.evaluations} points)",
        ["invocation", "seconds", "cache hits", "hit ratio"],
    )
    table.add_row("cold", f"{cold_seconds:.4f}", 0, "0%")
    table.add_row(
        "warm", f"{warm_seconds:.4f}", stats.hits,
        f"{100.0 * stats.hit_ratio:.1f}%",
    )
    table.add_row("speedup", f"{speedup:.1f}x", "", "")
    table.show()

    assert warm_result.to_json() == cold_result.to_json()
    assert stats.hit_ratio >= MIN_HIT_RATIO, (
        f"warm run served only {stats.hit_ratio:.1%} of lookups from "
        f"the cache (need >= {MIN_HIT_RATIO:.0%})"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"warm exploration only {speedup:.1f}x faster than cold "
        f"(need >= {MIN_SPEEDUP:.0f}x)"
    )


def test_ben_dse_cache_zero_resynthesis(cache_dir):
    """A whole warm compile never reaches HLS: every point is a
    cost-cache hit and every feasible FPGA variant is packaged with
    the bitstream that hit carries, so the synthesis count is exactly
    zero — exploring *and* emitting."""
    pipeline = pipeline_from_sources("score", [KERNEL])
    compiler = EverestCompiler(space=SPACE, emit_artifacts=True)
    configure(cache_dir=cache_dir,
              prepared_capacity=DEFAULT_PREPARED_CAPACITY)
    clear_caches()
    cold = compiler.compile(pipeline)

    configure(cache_dir=cache_dir,
              prepared_capacity=DEFAULT_PREPARED_CAPACITY)
    import repro.core.dse.cost_model as cost_model
    real_synthesize = cost_model.synthesize
    calls = []

    def counting_synthesize(*args, **kwargs):
        calls.append(args)
        return real_synthesize(*args, **kwargs)

    cost_model.synthesize = counting_synthesize
    try:
        warm = compiler.compile(pipeline)
    finally:
        cost_model.synthesize = real_synthesize

    result = warm.exploration["score"]
    stats = cost_cache().stats
    assert calls == [], f"warm compile synthesized {len(calls)} designs"
    assert stats.misses == 0
    assert stats.hits == result.evaluations
    assert result.to_json() == cold.exploration["score"].to_json()

    def images(app):
        """(kind, payload) packaged per feasible FPGA variant."""
        artifacts = [app.package.artifact_for(variant)
                     for variant in app.exploration["score"].feasible
                     if variant.is_hardware]
        return [(artifact.kind, artifact.payload)
                for artifact in artifacts]

    assert images(warm) == images(cold) != []
    assert {kind for kind, _ in images(warm)} == {"bitstream"}
    assert warm.package.verify_integrity()
