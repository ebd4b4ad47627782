"""Tests for the design space and Pareto utilities."""

import pytest

from repro.core.dse.pareto import knee_point, pareto_front
from repro.core.dse.space import DesignSpace
from repro.core.variants import CostEstimate, VariantKnobs
from repro.errors import DSEError
from tests.dse.conftest import make_variant


class TestDesignSpace:
    def test_small_space_size(self):
        space = DesignSpace.small()
        # cpu: 2 thread counts; fpga: 2 unrolls
        assert space.size() == 4

    def test_points_deduplicated(self):
        space = DesignSpace(targets=("cpu",), threads=(1,),
                            unrolls=(1, 2, 4))
        # unroll is irrelevant for cpu: one point
        assert space.size() == 1

    def test_invalid_target(self):
        with pytest.raises(DSEError):
            DesignSpace(targets=("quantum",))

    @pytest.mark.parametrize("values, knob", [
        ("threads", "threads"), ("interleaves", "interleave"),
    ])
    def test_empty_knob_is_an_error(self, values, knob):
        # a knob the CPU never reads would still empty its cross product
        with pytest.raises(DSEError, match=f"knob '{knob}' has no values"):
            DesignSpace(targets=("cpu",), **{values: ()})

    def test_thorough_space_large(self):
        assert DesignSpace.thorough().size() > 50


class TestPareto:
    def test_dominated_removed(self):
        good = make_variant(1.0, 1.0)
        bad = make_variant(2.0, 2.0)
        front = pareto_front([bad, good])
        assert front == [good]

    def test_trade_off_both_kept(self):
        fast = make_variant(1.0, 10.0)
        frugal = make_variant(10.0, 1.0)
        front = pareto_front([fast, frugal])
        assert set(id(v) for v in front) == {id(fast), id(frugal)}

    def test_infeasible_excluded(self):
        feasible = make_variant(5.0, 5.0)
        infeasible = make_variant(1.0, 1.0, feasible=False)
        assert pareto_front([infeasible, feasible]) == [feasible]

    def test_duplicate_costs_deduped(self):
        a = make_variant(1.0, 1.0)
        b = make_variant(1.0, 1.0)
        assert len(pareto_front([a, b])) == 1

    def test_knee_point_prefers_balance(self):
        fast = make_variant(1.0, 100.0)
        frugal = make_variant(100.0, 1.0)
        balanced = make_variant(5.0, 5.0)
        assert knee_point([fast, frugal, balanced]) is balanced

    def test_knee_point_empty_raises(self):
        with pytest.raises(DSEError, match="no feasible variants"):
            knee_point([make_variant(1, 1, feasible=False)])

    def test_no_feasible_error_carries_dse001(self):
        try:
            knee_point([])
        except DSEError as exc:
            codes = [d.code for d in exc.diagnostics.items]
            assert codes == ["DSE001"]
        else:
            pytest.fail("expected DSEError")


class TestVariantMetadata:
    def test_describe_cpu(self):
        knobs = VariantKnobs(target="cpu", threads=8)
        assert "cpu" in knobs.describe()
        assert "t8" in knobs.describe()

    def test_describe_fpga(self):
        knobs = VariantKnobs(target="fpga", unroll=4, dift=True)
        text = knobs.describe()
        assert "fpga" in text and "u4" in text and "dift" in text

    def test_to_metadata_roundtrip_fields(self):
        variant = make_variant(1.5, 2.5)
        metadata = variant.to_metadata()
        assert metadata["latency_s"] == 1.5
        assert metadata["energy_j"] == 2.5
        assert metadata["kernel"] == "k"

    def test_dominates_requires_feasibility(self):
        feasible = CostEstimate(1.0, 1.0)
        infeasible = CostEstimate(0.1, 0.1, feasible=False)
        assert not infeasible.dominates(feasible)
        assert feasible.dominates(infeasible)
