"""Tests for the mARGOt-style autotuner."""

import pytest

from repro.core.variants import CostEstimate, Variant, VariantKnobs
from repro.errors import RuntimeSystemError
from repro.runtime.autotuner.data_features import DataFeatures
from repro.runtime.autotuner.goals import Goal, GoalKind
from repro.runtime.autotuner.knowledge import KnowledgeBase
from repro.runtime.autotuner.manager import (
    ApplicationManager,
    SystemState,
)


def make_variant(kernel, target, latency, energy, dift=False,
                 threads=1, unroll=1):
    return Variant(
        kernel=kernel,
        knobs=VariantKnobs(target=target, threads=threads,
                           unroll=unroll, dift=dift),
        cost=CostEstimate(latency_s=latency, energy_j=energy),
    )


@pytest.fixture
def knowledge():
    base = KnowledgeBase()
    base.add_variant(make_variant("k", "cpu", 10e-6, 50e-6))
    base.add_variant(make_variant("k", "fpga", 4e-6, 5e-6))
    base.add_variant(make_variant("k", "cpu", 8e-6, 80e-6, dift=True,
                                  threads=4))
    return base


class TestGoals:
    def test_objective_directions(self):
        assert Goal(GoalKind.PERFORMANCE).objective(1.0, 100.0) == 1.0
        assert Goal(GoalKind.ENERGY).objective(1.0, 100.0) == 100.0
        assert Goal(GoalKind.BALANCED).objective(2.0, 3.0) == 6.0

    def test_constraints(self):
        goal = Goal(max_latency_s=1.0, max_energy_j=2.0)
        assert goal.satisfied(0.5, 1.0)
        assert not goal.satisfied(2.0, 1.0)
        assert not goal.satisfied(0.5, 3.0)


class TestKnowledgeBase:
    def test_points_registered(self, knowledge):
        assert len(knowledge.points_for("k")) == 3

    def test_unknown_kernel(self, knowledge):
        with pytest.raises(RuntimeSystemError):
            knowledge.points_for("ghost")

    def test_observe_corrects_prediction(self, knowledge):
        point = knowledge.points_for("k")[0]
        # reality is consistently 2x the prediction
        for _ in range(30):
            point.observe(20e-6, 100e-6)
        assert point.expected_latency_s == pytest.approx(20e-6,
                                                         rel=0.05)
        assert point.invocations == 30

    def test_find(self, knowledge):
        point = knowledge.points_for("k")[1]
        found = knowledge.find("k", point.variant.variant_id)
        assert found is point
        assert knowledge.find("k", 10**9) is None


class TestDataFeatures:
    def test_nominal_is_identity_scale(self):
        features = DataFeatures()
        assert features.latency_factor(True) == pytest.approx(1.0)
        assert features.latency_factor(False) == pytest.approx(1.0)

    def test_sparsity_helps_software_more(self):
        sparse = DataFeatures(sparsity=0.8)
        assert sparse.latency_factor(False) < \
            sparse.latency_factor(True)

    def test_burstiness_hurts_software_more(self):
        bursty = DataFeatures(burstiness=1.0)
        assert bursty.latency_factor(False) > \
            bursty.latency_factor(True)

    def test_validation(self):
        with pytest.raises(ValueError):
            DataFeatures(sparsity=1.5)
        with pytest.raises(ValueError):
            DataFeatures(size_scale=0.0)


class TestApplicationManager:
    def test_performance_goal_picks_fastest(self, knowledge):
        manager = ApplicationManager(knowledge)
        point = manager.select("k")
        assert point.variant.is_hardware

    def test_energy_goal_picks_frugal(self, knowledge):
        manager = ApplicationManager(
            knowledge, goal=Goal(GoalKind.ENERGY)
        )
        assert manager.select("k").variant.is_hardware  # 5uJ

    def test_fpga_unavailable_falls_back(self, knowledge):
        manager = ApplicationManager(knowledge)
        point = manager.select(
            "k", SystemState(fpga_available=False)
        )
        assert not point.variant.is_hardware

    def test_contention_flips_choice(self, knowledge):
        manager = ApplicationManager(knowledge)
        relaxed = manager.select("k", SystemState())
        contended = manager.select(
            "k", SystemState(fpga_contention=1.0)
        )
        assert relaxed.variant.is_hardware
        assert not contended.variant.is_hardware
        assert manager.switches == 1

    def test_security_alert_forces_dift(self, knowledge):
        manager = ApplicationManager(knowledge)
        point = manager.select(
            "k", SystemState(security_alert=True)
        )
        assert point.variant.knobs.dift

    def test_feedback_changes_selection(self, knowledge):
        manager = ApplicationManager(knowledge)
        fpga_point = manager.select("k")
        # FPGA turns out 10x slower than predicted
        for _ in range(40):
            manager.report("k", fpga_point, 20e-6, 5e-6)
        new_point = manager.select("k")
        assert not new_point.variant.is_hardware

    def test_report_unknown_point_rejected(self, knowledge):
        manager = ApplicationManager(knowledge)
        foreign = KnowledgeBase()
        foreign_point = foreign.add_variant(
            make_variant("k", "cpu", 1.0, 1.0)
        )
        with pytest.raises(RuntimeSystemError):
            manager.report("k", foreign_point, 1.0, 1.0)

    def test_goal_switch_changes_selection(self):
        """§IV: the optimization goal (performance vs energy) is a
        first-class selection input and can change at run time."""
        base = KnowledgeBase()
        base.add_variant(make_variant("k", "cpu", 2e-6, 300e-6,
                                      threads=8))
        base.add_variant(make_variant("k", "fpga", 6e-6, 4e-6))
        manager = ApplicationManager(base, goal=Goal(
            GoalKind.PERFORMANCE))
        fast = manager.select("k")
        assert not fast.variant.is_hardware  # cpu is faster here
        manager.goal = Goal(GoalKind.ENERGY)
        frugal = manager.select("k")
        assert frugal.variant.is_hardware
        assert manager.switches == 1

    def test_constraint_prunes_infeasible(self):
        base = KnowledgeBase()
        base.add_variant(make_variant("k", "cpu", 2e-6, 300e-6))
        base.add_variant(make_variant("k", "fpga", 6e-6, 4e-6))
        # performance goal, but with an energy cap only fpga meets
        manager = ApplicationManager(base, goal=Goal(
            GoalKind.PERFORMANCE, max_energy_j=10e-6))
        point = manager.select("k")
        assert point.variant.is_hardware

    def test_approximate_variants_respect_accuracy_floor(self):
        """mARGOt approximate computing: degraded variants win on
        latency only while they satisfy the quality constraint."""

        def approx_variant(latency, accuracy, samples):
            return Variant(
                kernel="ptdr",
                knobs=VariantKnobs(target="cpu", threads=samples),
                cost=CostEstimate(
                    latency_s=latency, energy_j=latency * 10,
                    accuracy=accuracy,
                ),
            )

        base = KnowledgeBase()
        base.add_variant(approx_variant(1e-4, 0.80, 1))   # 50 samples
        base.add_variant(approx_variant(4e-4, 0.95, 2))   # 200
        base.add_variant(approx_variant(2e-3, 0.99, 4))   # 1000
        base.add_variant(approx_variant(1e-2, 1.00, 8))   # 5000

        loose = ApplicationManager(base, goal=Goal(
            GoalKind.PERFORMANCE, min_accuracy=0.75))
        assert loose.select("ptdr").accuracy == pytest.approx(0.80)

        medium = ApplicationManager(base, goal=Goal(
            GoalKind.PERFORMANCE, min_accuracy=0.95))
        assert medium.select("ptdr").accuracy == pytest.approx(0.95)

        strict = ApplicationManager(base, goal=Goal(
            GoalKind.PERFORMANCE, min_accuracy=0.999))
        assert strict.select("ptdr").accuracy == pytest.approx(1.0)
