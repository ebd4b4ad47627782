"""Bound-guided exhaustive exploration.

The analytic lower bounds from the static performance analyzer let
the explorer skip points that provably cannot join the Pareto front
(their bound is already dominated by a priced front member, or it
already violates a latency/energy requirement). The hard contract:
the pruned exploration's front is byte-identical to the unpruned
one's — pruning may only remove work, never change the answer.
"""

import json

import pytest

from repro.core.dse.cache import cost_cache
from repro.core.dse.explorer import Explorer
from repro.core.dse.space import DesignSpace
from repro.core.dsl.annotations import Requirement, RequirementKind
from repro.errors import DSEError
from repro.obs import MetricsRegistry, Observation, observe


def space_16():
    """16 distinct points: 8 cpu (threads x tiles), 8 fpga
    (unrolls x tiles)."""
    return DesignSpace(
        targets=("cpu", "fpga"),
        threads=(1, 2, 4, 8),
        unrolls=(1, 2, 4, 8),
        tiles=(0, 8),
    )


DEADLINE = Requirement(kind=RequirementKind.LATENCY, value=2.5e-5)


class TestFrontIdentity:
    def test_pruned_front_matches_unpruned(self, gemm_module):
        plain = Explorer(
            gemm_module, "gemm", space=space_16(),
        ).run("exhaustive")
        guided_explorer = Explorer(
            gemm_module, "gemm", space=space_16(), bound_guided=True,
        )
        guided = guided_explorer.run("exhaustive")
        assert guided_explorer._bound_pruned > 0
        assert guided.front_json() == plain.front_json()
        assert guided.evaluations < plain.evaluations

    def test_identity_holds_under_requirements(self, gemm_module):
        plain = Explorer(
            gemm_module, "gemm", space=space_16(),
            requirements=[DEADLINE],
        ).run("exhaustive")
        guided_explorer = Explorer(
            gemm_module, "gemm", space=space_16(),
            requirements=[DEADLINE], bound_guided=True,
        )
        guided = guided_explorer.run("exhaustive")
        assert guided.front_json() == plain.front_json()
        # a deadline lets the pruner reject slow points before any
        # front member exists, so it skips at least as much.
        assert guided_explorer._bound_pruned > 0

    def test_front_json_holds_one_row_per_member(self, gemm_module):
        plain = Explorer(
            gemm_module, "gemm", space=space_16(),
        ).run("exhaustive")
        guided = Explorer(
            gemm_module, "gemm", space=space_16(), bound_guided=True,
        ).run("exhaustive")
        payload = json.loads(guided.front_json())
        assert payload["kernel"] == "gemm"
        assert len(payload["front"]) == len(plain.front) > 0


class TestDeterminism:
    def test_serial_matches_parallel(self, gemm_module):
        serial = Explorer(
            gemm_module, "gemm", space=space_16(), bound_guided=True,
        ).run("exhaustive")
        parallel = Explorer(
            gemm_module, "gemm", space=space_16(), bound_guided=True,
            workers=4,
        ).run("exhaustive")
        assert serial.to_json() == parallel.to_json()

    def test_cold_matches_warm(self, gemm_module):
        cold = Explorer(
            gemm_module, "gemm", space=space_16(), bound_guided=True,
        ).run("exhaustive")
        warm = Explorer(
            gemm_module, "gemm", space=space_16(), bound_guided=True,
        ).run("exhaustive")
        assert cold.to_json() == warm.to_json()


class TestGuardsAndFallbacks:
    @pytest.mark.parametrize("strategy", ["random", "evolutionary"])
    def test_non_exhaustive_strategy_rejected(self, gemm_module, strategy):
        """The bound filter rides on the one search; a budgeted search
        name is refused before any bound is derived or point priced."""
        explorer = Explorer(
            gemm_module, "gemm", space=space_16(), bound_guided=True,
        )
        before = cost_cache().stats.snapshot()
        with pytest.raises(DSEError, match="unknown exploration strategy"):
            explorer.run(strategy)
        assert cost_cache().stats.delta(before).misses == 0

    def test_missing_bounds_fall_back_to_plain(
        self, gemm_module, monkeypatch
    ):
        from repro.core.dse import explorer as explorer_module

        monkeypatch.setattr(
            explorer_module, "kernel_bounds", lambda *a, **k: None
        )
        explorer = Explorer(
            gemm_module, "gemm", space=space_16(), bound_guided=True,
        )
        result = explorer.run("exhaustive")
        assert explorer._bound_pruned == 0
        assert result.evaluations == space_16().size()

    def test_pruned_counter_reaches_metrics(self, gemm_module):
        metrics = MetricsRegistry()
        with observe(Observation(metrics=metrics)):
            Explorer(
                gemm_module, "gemm", space=space_16(),
                bound_guided=True,
            ).run("exhaustive")
        assert metrics.counter(
            "dse.bound_pruned_points").value(kernel="gemm") > 0
