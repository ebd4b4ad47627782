"""Determinism properties of the parallel, cached evaluation engine.

The explorer's contract is that neither the worker count nor the cache
temperature changes any output: ``ExplorationResult.to_json()`` must be
byte-identical across serial, parallel, cold and warm runs, and the
incremental :class:`ParetoFront` must agree exactly with a brute-force
batch front.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dse.cache import clear_caches, cost_cache
from repro.core.dse.explorer import Explorer
from repro.core.dse.pareto import ParetoFront, pareto_front
from repro.core.dse.space import DesignSpace
from tests.conftest import examples
from tests.dse.conftest import make_variant

#: Big enough for several evaluation batches (BATCH_SIZE = 16) while
#: keeping HLS synthesis time reasonable.
SPACE = DesignSpace(
    targets=("cpu", "fpga"),
    threads=(1, 2, 4, 8),
    unrolls=(1, 2, 4, 8),
    tiles=(0, 8),
)

def explore(module, workers):
    return Explorer(module, "gemm", space=SPACE, workers=workers).run()


class TestParallelMatchesSerial:
    @pytest.mark.parametrize("workers", [2, 3, 4, 8])
    def test_byte_identical_results(self, gemm_module, workers):
        """However many threads share a batch's misses, the result is
        the serial one."""
        clear_caches()
        serial = explore(gemm_module, workers=1)
        clear_caches()  # the parallel run starts equally cold
        wide = explore(gemm_module, workers=workers)
        assert serial.to_json() == wide.to_json()
        assert [v.knobs for v in serial.front] == \
            [v.knobs for v in wide.front]
        assert [v.knobs for v in serial.evaluated] == \
            [v.knobs for v in wide.evaluated]

    def test_warm_run_byte_identical_and_hit_only(self, gemm_module):
        """A re-exploration must reuse every cost (zero re-synthesis)
        and still serialize byte-identically."""
        cold = explore(gemm_module, workers=1)
        before = cost_cache().stats.snapshot()
        warm = explore(gemm_module, workers=1)
        delta = cost_cache().stats.delta(before)
        assert warm.to_json() == cold.to_json()
        assert delta.misses == 0
        assert delta.hits == warm.evaluations


# -- incremental front == batch front ---------------------------------

def brute_force_front(variants):
    """Reference batch implementation: O(n^2) dominance scan plus
    ordered dedupe on rounded cost coordinates."""
    feasible = [v for v in variants if v.cost.feasible]
    front = []
    seen = set()
    for variant in feasible:
        if any(other.cost.dominates(variant.cost)
               for other in feasible if other is not variant):
            continue
        key = (round(variant.cost.latency_s, 12),
               round(variant.cost.energy_j, 12))
        if key in seen:
            continue
        seen.add(key)
        front.append(variant)
    return front


#: Exact eighths keep dominance comparisons free of float fuzz while
#: still producing plenty of ties and duplicates.
grid_cost = st.integers(min_value=1, max_value=48).map(
    lambda n: n * 0.125
)
cost_points = st.lists(
    st.tuples(grid_cost, grid_cost, st.booleans()), max_size=40
)


class TestIncrementalFrontProperty:
    @settings(max_examples=examples(300), deadline=None)
    @given(cost_points)
    def test_matches_brute_force(self, points):
        variants = [make_variant(lat, en, ok) for lat, en, ok in points]
        incremental = ParetoFront()
        for variant in variants:
            incremental.add(variant)
        expected = brute_force_front(variants)
        assert incremental.variants() == expected
        assert pareto_front(variants) == expected

    @settings(max_examples=examples(100), deadline=None)
    @given(cost_points)
    def test_front_members_mutually_nondominated(self, points):
        variants = [make_variant(lat, en, ok) for lat, en, ok in points]
        front = ParetoFront(variants).variants()
        for a in front:
            assert a.cost.feasible
            for b in front:
                if a is not b:
                    assert not a.cost.dominates(b.cost)

    def test_add_reports_front_changes(self):
        front = ParetoFront()
        assert front.add(make_variant(2.0, 2.0)) is True
        assert front.add(make_variant(3.0, 3.0)) is False  # dominated
        assert front.add(make_variant(2.0, 2.0)) is False  # duplicate
        assert front.add(make_variant(1.0, 1.0)) is True   # dominates
        assert len(front) == 1
