"""Process-pool evaluation parity with serial and threaded DSE.

``workers_mode="process"`` ships cache misses to a fork-based worker
pool; each child prices variants against its own parsed copy of the
module and returns the cost plus its prepared-cache counter delta.
The parent keeps sole ownership of the cost cache (get before dispatch,
put after) so fronts, traces and cost-cache statistics are
byte-identical to a serial run at every worker count — the property
this suite pins across all three search strategies, cold and warm.
Prepared-module statistics agree in their lookups; where points share
a pass pipeline the hit/miss split follows the process that priced
them (``TestSharedPipelines``).
"""

import pytest

from repro.core.dse.cache import clear_caches, cost_cache, prepared_cache
from repro.core.dse.explorer import Explorer
from repro.core.dse.space import DesignSpace
from repro.errors import DSEError
from repro.obs import observe, session

#: Small enough that fork startup doesn't dominate the suite, big
#: enough to span several evaluation batches and both targets.
SPACE = DesignSpace(
    targets=("cpu", "fpga"),
    threads=(1, 2),
    unrolls=(1, 2, 4),
    tiles=(0, 8),
)

#: Three unrolls x two clocks x two memory strategies per tile: twelve
#: FPGA points share each of the two pass pipelines.
SHARING_SPACE = DesignSpace(
    targets=("cpu", "fpga"),
    threads=(1, 2),
    unrolls=(1, 2, 4),
    tiles=(0, 8),
    memory_strategies=("auto", "cyclic"),
    clocks_hz=(250e6, 350e6),
)
SHARED_PIPELINES = 2

#: (workers, workers_mode) grid the parity tests sweep. Serial is the
#: reference; every other cell must reproduce it byte for byte.
MODES = [
    (1, "thread"),
    (4, "thread"),
    (2, "process"),
    (3, "process"),
]


def explore(module, workers, workers_mode, space=SPACE):
    """One deterministic exploration; returns (result, trace json)."""
    with observe(session(deterministic=True)) as obs:
        explorer = Explorer(
            module, "gemm", space=space,
            workers=workers, workers_mode=workers_mode,
        )
        result = explorer.run()
    return result, obs.tracer.to_json()


class TestProcessMatchesSerial:
    def test_cold_byte_identical(self, gemm_module):
        clear_caches()
        reference, reference_trace = explore(gemm_module, 1, "thread")
        for workers, workers_mode in MODES[1:]:
            clear_caches()
            result, trace = explore(gemm_module, workers, workers_mode)
            assert result.to_json() == reference.to_json(), (
                workers, workers_mode
            )
            assert trace == reference_trace, (workers, workers_mode)

    def test_cache_stat_deltas_match_serial(self, gemm_module):
        """The parent-owned cost cache must count exactly the same
        hits/misses/stores whether misses are priced in-process or in
        pool children (whose prepared-cache work is merged back). The
        prepared cache counts the same lookups; a pipeline is a miss
        once in every process that meets it (``TestSharedPipelines``),
        so its misses are at least the serial run's."""
        deltas = []
        for workers, workers_mode in MODES:
            clear_caches()
            cost_before = cost_cache().stats.snapshot()
            prep_before = prepared_cache().stats.snapshot()
            explore(gemm_module, workers, workers_mode)
            deltas.append((
                cost_cache().stats.delta(cost_before),
                prepared_cache().stats.delta(prep_before),
            ))
        cost, prepared = deltas[0]
        for delta, mode in zip(deltas[1:], MODES[1:]):
            assert delta[0] == cost, mode
            assert delta[1].lookups == prepared.lookups, mode
            assert delta[1].misses >= prepared.misses, mode

    def test_warm_process_run_is_hit_only(self, gemm_module):
        """With the cost cache warm, the pool must never be consulted:
        every point resolves to a parent-side cache hit."""
        clear_caches()
        cold, _ = explore(gemm_module, 2, "process")
        before = cost_cache().stats.snapshot()
        warm, _ = explore(gemm_module, 2, "process")
        delta = cost_cache().stats.delta(before)
        assert warm.to_json() == cold.to_json()
        assert delta.misses == 0
        assert delta.hits == warm.evaluations

    def test_children_populate_parent_cost_cache(self, gemm_module):
        """Costs priced in children are stored by the parent: a serial
        re-run right after a process run must be all hits."""
        clear_caches()
        explore(gemm_module, 3, "process")
        before = cost_cache().stats.snapshot()
        explore(gemm_module, 1, "thread")
        assert cost_cache().stats.delta(before).misses == 0


class TestSharedPipelines:
    def test_only_the_prepared_hit_miss_split_follows_the_pool(
            self, gemm_module):
        """Points that run the same passes share one prepared module
        per process. Results, traces, cost-cache counters and the
        number of prepared lookups stay those of the serial run; a
        pipeline is a prepared miss once in every process that meets
        it, so only the serial split is a fixed number."""
        runs = []
        for workers, workers_mode in MODES:
            clear_caches()
            cost_before = cost_cache().stats.snapshot()
            prep_before = prepared_cache().stats.snapshot()
            result, trace = explore(gemm_module, workers,
                                    workers_mode, SHARING_SPACE)
            runs.append((
                result.to_json(), trace,
                cost_cache().stats.delta(cost_before),
                prepared_cache().stats.delta(prep_before),
            ))
        fpga_points = sum(
            knobs.target == "fpga" for knobs in SHARING_SPACE.points())
        serial = runs[0]
        assert serial[3].lookups == fpga_points == 12 * SHARED_PIPELINES
        assert serial[3].misses == SHARED_PIPELINES
        for run, mode in zip(runs[1:], MODES[1:]):
            assert run[:3] == serial[:3], mode
            assert run[3].lookups == serial[3].lookups, mode
            assert run[3].misses >= SHARED_PIPELINES, mode


class TestModeValidation:
    def test_bogus_mode_rejected(self, gemm_module):
        with pytest.raises(DSEError, match="workers_mode"):
            Explorer(gemm_module, "gemm", space=SPACE,
                     workers=2, workers_mode="bogus")

    def test_process_mode_serial_width_stays_inline(self, gemm_module):
        """workers=1 never spawns a pool, whatever the mode says."""
        clear_caches()
        explorer = Explorer(gemm_module, "gemm", space=SPACE,
                            workers=1, workers_mode="process")
        result = explorer.run("exhaustive")
        assert explorer._process_pool is None
        assert result.evaluations == SPACE.size()
