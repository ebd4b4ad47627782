"""Static DSE-space pruning tests.

The explorer rejects knob points whose explicit ``hw.partition``
factors provably cannot serve the unrolled access pattern *before*
pricing them. The acceptance bar: pruning must change nothing but the
work done — a pruned exploration serializes byte-identically to an
unpruned one, because the cost model's own static gate produces the
exact same infeasibility verdicts.
"""

import pytest

from repro.core.analysis.absint import function_facts, partition_conflict
from repro.core.dse.explorer import Explorer
from repro.core.dse.space import DesignSpace
from repro.core.variants import VariantKnobs
from repro.obs import MetricsRegistry, Observation, observe
from tests.dse.oracle import partitioned_module, partitioned_space


class TestStaticConflict:
    def test_conflict_reason_matches_the_cost_model_wording(self):
        module = partitioned_module()
        facts = function_facts(module, "k")
        reason = partition_conflict(
            facts, VariantKnobs(target="fpga", unroll=8))
        assert reason is not None
        assert reason.startswith("partition: ")
        assert "16 ports" in reason and "provides 4" in reason

    def test_no_facts_means_no_conflict(self):
        assert partition_conflict(
            None, VariantKnobs(target="fpga", unroll=8)) is None


@pytest.mark.parametrize("bound_guided", [False, True],
                         ids=["plain", "bound-guided"])
class TestByteIdentity:
    def test_pruned_run_serializes_identically(self, bound_guided):
        module = partitioned_module()
        options = dict(space=partitioned_space(), bound_guided=bound_guided)
        pruned = Explorer(module, "k", prune=True, **options)
        result = pruned.run()
        baseline = Explorer(module, "k", prune=False, **options).run()
        assert pruned._pruned > 0
        assert result.to_json() == baseline.to_json()

    def test_parallel_pruned_run_matches_serial(self, bound_guided):
        module = partitioned_module()
        options = dict(space=partitioned_space(), bound_guided=bound_guided)
        serial = Explorer(module, "k", workers=1, **options).run()
        threaded = Explorer(module, "k", workers=4, **options).run()
        assert serial.to_json() == threaded.to_json()


class TestPrunedPoints:
    def test_pruned_points_stay_in_the_result_as_infeasible(self):
        module = partitioned_module()
        explorer = Explorer(module, "k", space=partitioned_space())
        result = explorer.run("exhaustive")
        rejected = [
            v for v in result.evaluated
            if v.cost.infeasible_reason
            and v.cost.infeasible_reason.startswith("partition: ")
        ]
        assert len(rejected) == explorer._pruned == 1
        (variant,) = rejected
        assert variant.knobs.unroll == 8
        assert not variant.cost.feasible
        assert variant.cost.latency_s == float("inf")

    def test_legal_points_are_never_pruned(self):
        module = partitioned_module()
        space = DesignSpace(
            targets=("cpu", "fpga"), threads=(1,), unrolls=(1, 2),
        )
        explorer = Explorer(module, "k", space=space)
        result = explorer.run("exhaustive")
        assert explorer._pruned == 0
        assert all(
            not (v.cost.infeasible_reason or "").startswith(
                "partition: ")
            for v in result.evaluated
        )

    def test_prune_counter_reaches_the_metrics_registry(self):
        module = partitioned_module()
        metrics = MetricsRegistry()
        with observe(Observation(metrics=metrics)):
            Explorer(module, "k", space=partitioned_space()).run("exhaustive")
        assert metrics.counter(
            "dse.pruned_points").value(kernel="k") == 1

    def test_cpu_only_model_keeps_the_no_fpga_reason(self):
        from repro.core.dse.cost_model import ArchitectureModel
        from repro.platform.resources import CPUDescription

        module = partitioned_module()
        model = ArchitectureModel(
            name="cpu-only",
            cpu=CPUDescription(
                name="x", cores=4, frequency_hz=2e9,
                flops_per_cycle=4.0, tdp_watts=65.0, idle_watts=10.0,
            ),
        )
        # ArchitectureModel fills fpga fields with defaults; force the
        # CPU-only shape the compiler uses for pure-software nodes.
        model.fpga_role_capacity = None
        model.fpga_link = None
        explorer = Explorer(module, "k", space=partitioned_space(), model=model)
        result = explorer.run("exhaustive")
        assert explorer._pruned == 0
        fpga_points = [
            v for v in result.evaluated if v.knobs.target == "fpga"
        ]
        assert fpga_points
        assert all(
            v.cost.infeasible_reason == "no FPGA on this node"
            for v in fpga_points
        )
