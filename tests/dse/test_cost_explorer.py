"""Tests for the cost model and the explorer."""

import json

import pytest

from repro.core.dse.cost_model import (
    ArchitectureModel,
    evaluate_variant,
    price_variant,
)
from repro.core.dse.explorer import DSE_CATEGORY, ExplorationResult, Explorer
from repro.core.dse.space import DesignSpace
from repro.core.dsl.annotations import Requirement, RequirementKind
from repro.core.variants import VariantKnobs
from repro.errors import DSEError
from repro.obs import observe, session
from repro.platform.resources import FPGAResources


class TestCostModel:
    def test_cpu_estimate_feasible(self, gemm_module):
        cost = evaluate_variant(
            gemm_module, "gemm", VariantKnobs(target="cpu", threads=4)
        )
        assert cost.feasible
        assert cost.latency_s > 0 and cost.energy_j > 0

    def test_threads_reduce_latency(self, gemm_module):
        one = evaluate_variant(
            gemm_module, "gemm", VariantKnobs(target="cpu", threads=1)
        )
        eight = evaluate_variant(
            gemm_module, "gemm", VariantKnobs(target="cpu", threads=8)
        )
        assert eight.latency_s < one.latency_s

    def test_software_dift_slows_down(self, gemm_module):
        plain = evaluate_variant(
            gemm_module, "gemm", VariantKnobs(target="cpu"))
        tracked = evaluate_variant(
            gemm_module, "gemm", VariantKnobs(target="cpu", dift=True))
        assert tracked.latency_s > 1.5 * plain.latency_s

    def test_fpga_estimate(self, stream_module):
        cost = evaluate_variant(
            stream_module, "stream",
            VariantKnobs(target="fpga", unroll=4),
        )
        assert cost.feasible
        assert cost.resources.luts > 0

    def test_fpga_without_fpga_infeasible(self, stream_module):
        model = ArchitectureModel(name="cpu-only")
        model.fpga_role_capacity = None
        model.fpga_link = None
        cost = price_variant(
            stream_module, "stream", VariantKnobs(target="fpga"), model,
        )
        assert not cost.feasible
        assert "no FPGA" in cost.infeasible_reason

    def test_capacity_violation_infeasible(self, stream_module):
        model = ArchitectureModel(
            fpga_role_capacity=FPGAResources(
                luts=100, ffs=100, bram_kb=1, dsps=1
            )
        )
        cost = price_variant(
            stream_module, "stream", VariantKnobs(target="fpga"), model,
        )
        assert not cost.feasible
        assert "capacity" in cost.infeasible_reason

    def test_timing_violation_infeasible(self, stream_module):
        cost = evaluate_variant(
            stream_module, "stream",
            VariantKnobs(target="fpga", clock_hz=900e6),
        )
        assert not cost.feasible
        assert "timing" in cost.infeasible_reason

    def test_unknown_kernel(self, gemm_module):
        with pytest.raises(DSEError):
            evaluate_variant(gemm_module, "ghost", VariantKnobs())

    def test_gpu_target_unsupported(self):
        with pytest.raises(DSEError,
                           match="cost model cannot price target 'gpu'"):
            DesignSpace(targets=("cpu", "gpu"))

    def test_achievable_clock_derates_with_density(self):
        model = ArchitectureModel()
        light = model.achievable_clock(FPGAResources(luts=1000))
        dense = model.achievable_clock(FPGAResources(luts=400_000))
        assert dense < light


class TestExplorer:
    def test_exhaustive_covers_space(self, stream_module):
        explorer = Explorer(stream_module, "stream",
                            DesignSpace.small())
        result = explorer.exhaustive()
        assert result.evaluations == DesignSpace.small().size()
        assert result.front

    def test_front_is_subset(self, stream_module):
        result = Explorer(stream_module, "stream",
                          DesignSpace.small()).exhaustive()
        evaluated_ids = {id(v) for v in result.evaluated}
        assert all(id(v) in evaluated_ids for v in result.front)

    def test_best_latency_and_energy(self, stream_module):
        result = Explorer(stream_module, "stream",
                          DesignSpace.small()).exhaustive()
        fastest = result.best_latency()
        frugal = result.best_energy()
        assert fastest.cost.latency_s <= frugal.cost.latency_s
        assert frugal.cost.energy_j <= fastest.cost.energy_j

    def test_requirement_filters_variants(self, stream_module):
        tight = Requirement(RequirementKind.LATENCY, 1e-9)
        explorer = Explorer(
            stream_module, "stream", DesignSpace.small(),
            requirements=[tight],
        )
        result = explorer.exhaustive()
        assert all(not v.cost.feasible for v in result.evaluated)
        with pytest.raises(DSEError):
            result.best_latency()

    @pytest.mark.parametrize("strategy", [
        "random", "evolutionary", "simulated-annealing", "Exhaustive", "",
    ])
    def test_unknown_strategy(self, stream_module, strategy):
        explorer = Explorer(stream_module, "stream")
        with pytest.raises(DSEError, match="unknown exploration strategy"):
            explorer.run(strategy)

    @pytest.mark.parametrize("space", [
        DesignSpace.small(), DesignSpace(), DesignSpace.thorough(),
    ], ids=["small", "default", "thorough"])
    def test_run_prices_each_distinct_point_once(self, stream_module,
                                                 space):
        result = Explorer(stream_module, "stream", space).run()
        assert [v.knobs for v in result.evaluated] == list(space.points())
        assert result.evaluations == space.size()

    def test_run_defaults_to_exhaustive(self, stream_module):
        explorer = Explorer(stream_module, "stream", DesignSpace.small())
        assert explorer.run().to_json() \
            == explorer.run("exhaustive").to_json() \
            == explorer.exhaustive().to_json()

    def test_run_still_labels_its_search_exhaustive(self, stream_module):
        """The explore span's attribute and the metric label keep the
        value they always had, so traces and metrics read as before."""
        with observe(session(deterministic=True)) as obs:
            result = Explorer(stream_module, "stream",
                              DesignSpace.small()).run()
        [span] = [event for event in obs.tracer.spans(DSE_CATEGORY)
                  if event.name == "explore:stream"]
        assert span.args["strategy"] == "exhaustive"
        assert obs.metrics.counter("dse.evaluations").value(
            kernel="stream", strategy="exhaustive") == result.evaluations


class TestExplorationResult:
    def test_evaluations_is_the_evaluated_count(self, stream_module):
        """One count: ``to_json`` still emits it, for the goldens."""
        result = Explorer(stream_module, "stream",
                          DesignSpace.small()).run()
        assert json.loads(result.to_json())["evaluations"] \
            == result.evaluations == len(result.evaluated) > 0
        result.evaluated.pop()
        assert result.evaluations == len(result.evaluated)

    def test_evaluations_cannot_be_set(self):
        result = ExplorationResult(kernel="k")
        with pytest.raises(AttributeError):
            result.evaluations = 3
        assert result.evaluations == 0
