"""Experiment ben-perf — analytic bounds make exploration cheaper.

The static performance analyzer derives per-point latency/energy
lower bounds without running the cost model. Bound-guided exploration
visits points in ascending bound order and skips any point whose
bound already violates a deadline or is dominated by a priced front
member. The claims quantified:

* the bound-guided run reaches the *identical* knee point (and the
  byte-identical Pareto front) as the unpruned run;
* it does so with at least 2x fewer cost-model evaluations, cold;
* deriving the bounds costs less than the pricing they avoid: the
  analysis takes less time than the cold guided run saves over the
  cold unpruned one.
"""

from __future__ import annotations

import time

import pytest

from repro.core.analysis import perf as perf_module
from repro.core.analysis.cache import configure_analysis_cache
from repro.core.dse.cache import clear_caches, configure
from repro.core.dse.explorer import Explorer
from repro.core.dse.pareto import knee_point
from repro.core.dse.space import DesignSpace
from repro.core.dsl.annotations import Requirement, RequirementKind
from repro.core.dsl.kernel_dsl import compile_kernel
from repro.utils.tables import Table

KERNEL = """
kernel gemm(A: tensor<16x16xf32>, B: tensor<16x16xf32>)
        -> tensor<16x16xf32> {
  C = A @ B
  return C
}
"""

#: Mixed space: the low-clock / low-unroll FPGA corner provably
#: misses the deadline, and dominated CPU thread counts are provably
#: off the front — both prunable from bounds alone.
SPACE = DesignSpace(
    targets=("cpu", "fpga"),
    threads=(1, 2, 4, 8, 16),
    unrolls=(1, 2, 4, 8),
    tiles=(0,),
    clocks_hz=(100e6, 150e6, 200e6, 250e6),
)

DEADLINE = Requirement(kind=RequirementKind.LATENCY, value=1.2e-5)

MIN_EVAL_RATIO = 2.0


@pytest.fixture
def cold_state():
    """Memory-only caches, emptied, perf memo dropped."""
    configure(cache_dir=None)
    clear_caches()
    configure_analysis_cache(cache_dir=None)
    perf_module.clear_bounds_memo()
    yield
    configure(cache_dir=None)
    clear_caches()
    configure_analysis_cache(cache_dir=None)


def _explore(module, bound_guided=False):
    explorer = Explorer(
        module, "gemm", space=SPACE, requirements=[DEADLINE],
        bound_guided=bound_guided,
    )
    return explorer, explorer.run("exhaustive")


def test_ben_perf_bound_guided_exploration(cold_state, benchmark):
    """Identical knee, >= 2x fewer evaluations, analysis that costs
    less than the pricing it avoids."""
    module = compile_kernel(KERNEL)
    start = time.perf_counter()
    _, plain = _explore(module)
    plain_seconds = time.perf_counter() - start

    perf_module.clear_bounds_memo()
    start = time.perf_counter()
    bounds = perf_module.kernel_bounds(module, "gemm")
    analysis_seconds = time.perf_counter() - start
    assert bounds is not None

    # Cold again, so the guided run pays for every point it prices;
    # the bounds come from the memo, so its time excludes the analysis.
    clear_caches()
    start = time.perf_counter()
    guided_explorer, guided = _explore(module, bound_guided=True)
    guided_seconds = time.perf_counter() - start

    assert guided.front_json() == plain.front_json()
    plain_knee = knee_point(plain.front)
    guided_knee = knee_point(guided.front)
    assert (plain_knee.knobs.describe()
            == guided_knee.knobs.describe())
    assert plain_knee.cost.latency_s == guided_knee.cost.latency_s

    ratio = plain.evaluations / max(guided.evaluations, 1)
    saved_seconds = plain_seconds - guided_seconds

    benchmark(lambda: _explore(module, bound_guided=True))

    table = Table(
        f"ben-perf: bound-guided DSE over {SPACE.size()} points",
        ["quantity", "unpruned", "bound-guided"],
    )
    table.add_row("cost-model evaluations", plain.evaluations,
                  guided.evaluations)
    table.add_row("points pruned by bound", 0,
                  guided_explorer._bound_pruned)
    table.add_row("knee point", plain_knee.knobs.describe(),
                  guided_knee.knobs.describe())
    table.add_row("eval reduction", "1.0x", f"{ratio:.1f}x")
    table.add_row("cold exploration ms", f"{1e3 * plain_seconds:.1f}",
                  f"{1e3 * guided_seconds:.1f}")
    table.add_row("static analysis ms", "-",
                  f"{1e3 * analysis_seconds:.1f}")
    table.show()

    assert ratio >= MIN_EVAL_RATIO, (
        f"bound-guided run priced {guided.evaluations} of "
        f"{plain.evaluations} points: only {ratio:.2f}x reduction"
    )
    assert analysis_seconds < saved_seconds, (
        f"static analysis took {analysis_seconds:.4f}s but the guided "
        f"run saved only {saved_seconds:.4f}s "
        f"({plain_seconds:.4f}s -> {guided_seconds:.4f}s)"
    )


def test_ben_perf_report_is_fast(cold_state, benchmark):
    """A warm ``repro perf``-style report is microseconds: the memo
    serves it without re-deriving anything."""
    module = compile_kernel(KERNEL)
    first = perf_module.kernel_bounds(module, "gemm")
    assert first is not None

    def warm():
        return perf_module.kernel_bounds(module, "gemm")

    result = benchmark(warm)
    assert result is first
