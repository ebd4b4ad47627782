"""Tests for the mARGOt-style autotuner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.variants import CostEstimate, Variant, VariantKnobs
from repro.errors import RuntimeSystemError
from repro.runtime.autotuner.data_features import DataFeatures
from repro.runtime.autotuner.goals import Goal, GoalKind
from repro.runtime.autotuner.knowledge import KnowledgeBase
from repro.runtime.autotuner.manager import (
    ApplicationManager,
    SystemState,
)
from tests.conftest import examples


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
        goal = Goal(min_accuracy=0.9)
        assert goal.satisfied(0.95)
        assert goal.satisfied(0.9)
        assert not goal.satisfied(0.85)
        assert Goal().satisfied(0.1)


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
            DataFeatures(burstiness=-0.1)


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

    def test_report_point_of_a_twin_knowledge_base_rejected(self):
        """Two knowledge bases loaded from one package share variant
        ids; a point of the other one is still not this manager's."""
        variant = make_variant("k", "cpu", 1e-6, 1e-6)
        own, twin = KnowledgeBase(), KnowledgeBase()
        own_point = own.add_variant(variant)
        twin_point = twin.add_variant(variant)
        manager = ApplicationManager(own)
        with pytest.raises(RuntimeSystemError,
                           match="unknown point of kernel 'k'"):
            manager.report("k", twin_point, 2.2e-6, 1e-6)
        assert twin_point.latency_correction == 1.0
        manager.report("k", own_point, 2.2e-6, 1e-6)
        assert own_point.latency_correction > 1.0

    @pytest.mark.parametrize("latency, energy, bad", [
        (float("nan"), 1e-6, "nan"), (-5.0, 1e-6, "-5.0"),
        (1e-6, float("inf"), "inf"), (1e-6, -1e-9, "-1e-09"),
    ])
    def test_report_rejects_a_measurement_out_of_range(
            self, knowledge, latency, energy, bad):
        manager = ApplicationManager(knowledge)
        point = manager.select("k")
        with pytest.raises(RuntimeSystemError,
                           match=f"kernel 'k' .* got {bad}$"):
            manager.report("k", point, latency, energy)
        assert point.latency_correction == point.energy_correction == 1.0
        assert manager.select("k") is point

    def test_select_reads_a_replaced_knowledge_base(self, knowledge):
        manager = ApplicationManager(knowledge)
        manager.select("k")
        twin = KnowledgeBase()
        for point in knowledge.points_for("k"):
            twin.add_variant(point.variant)
        manager.knowledge = twin
        assert manager.select("k") is twin.points_for("k")[1]

    def test_a_tie_goes_back_to_the_first_point(self):
        base = KnowledgeBase()
        first = base.add_variant(make_variant("k", "cpu", 2e-6, 2e-6))
        second = base.add_variant(make_variant("k", "cpu", 2e-6, 2e-6,
                                               threads=2))
        manager = ApplicationManager(base)
        assert manager.select("k") is first
        manager.report("k", second, 1e-6, 2e-6)
        assert manager.select("k") is second
        manager.report("k", first, 1e-6, 2e-6)
        assert manager.select("k") is first

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
        base.add_variant(Variant(
            kernel="k", knobs=VariantKnobs(target="cpu"),
            cost=CostEstimate(latency_s=2e-6, energy_j=300e-6,
                              accuracy=0.8),
        ))
        base.add_variant(make_variant("k", "fpga", 6e-6, 4e-6))
        # performance goal, but with an accuracy floor only fpga meets
        manager = ApplicationManager(base, goal=Goal(
            GoalKind.PERFORMANCE, min_accuracy=0.9))
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


def oracle_select(points, goal, state, features):
    """The decision rule as first written: each point's expectation
    re-derived from its variant, the winner taken by ``min``."""
    state = state.clamp()
    candidates = []
    for point in points:
        if point.variant.is_hardware and not state.fpga_available:
            continue
        if state.security_alert and not point.variant.knobs.dift:
            continue
        candidates.append(point)
    if not candidates:
        candidates = list(points)

    def expected(point):
        is_hw = point.variant.is_hardware
        latency = point.expected_latency_s * features.latency_factor(
            is_hw)
        energy = point.expected_energy_j * features.energy_factor(is_hw)
        if is_hw:
            latency *= 1.0 + 3.0 * state.fpga_contention
        else:
            latency *= 1.0 + 2.0 * state.cpu_load
        return latency, energy

    def score(point):
        latency, energy = expected(point)
        feasible = goal.satisfied(point.variant.cost.accuracy)
        return (not feasible, goal.objective(latency, energy))

    return min(candidates, key=score)


#: A small pool of costs, so that generated points often tie.
COSTS = [
    (2e-6, 5e-6, 1.0), (4e-6, 2e-6, 1.0), (4e-6, 2e-6, 0.9),
    (1e-6, 9e-6, 0.8), (8e-6, 1e-6, 1.0),
]

unit = st.floats(min_value=0.0, max_value=1.0)

point_specs = st.lists(
    st.tuples(st.sampled_from(["cpu", "fpga", "gpu"]), st.booleans(),
              st.sampled_from(COSTS)),
    min_size=1, max_size=8,
)

goals = st.builds(
    Goal,
    kind=st.sampled_from(list(GoalKind)),
    min_accuracy=st.none() | st.floats(min_value=0.5, max_value=1.0),
)

#: What may happen after a select: nothing, a measurement fed back
#: (through this manager, straight into a point or through a second
#: manager of the same knowledge base; into the point just chosen or
#: any other), a new goal, or a new point.
events = st.none() | st.tuples(
    st.sampled_from(["report", "observe", "other"]),
    st.none() | st.integers(min_value=0, max_value=8),
    # ratios from a pool make equal points tie again after feedback
    st.sampled_from([0.5, 2.0]) | st.floats(min_value=0.1, max_value=10.0),
) | st.tuples(st.just("goal"), goals) | st.tuples(
    st.just("add"), point_specs.map(lambda specs: specs[0]),
)

#: A call's state and its features are each the last call's again
#: (``None``) or new ones, often from a pool so that later calls match.
calls = st.lists(
    st.tuples(
        st.none() | st.sampled_from([
            SystemState(), SystemState(cpu_load=0.5),
            SystemState(fpga_available=False),
            SystemState(security_alert=True),
        ]) | st.builds(SystemState, fpga_available=st.booleans(),
                       fpga_contention=unit, cpu_load=unit,
                       security_alert=st.booleans()),
        st.none() | st.sampled_from([DataFeatures(),
                                     DataFeatures(sparsity=0.5)])
        | st.builds(DataFeatures, sparsity=unit, burstiness=unit),
        events,
    ),
    min_size=1, max_size=10,
)


def add_point(base, spec):
    target, dift, (latency, energy, accuracy) = spec
    base.add_variant(Variant(
        kernel="k",
        knobs=VariantKnobs(target=target, dift=dift),
        cost=CostEstimate(latency_s=latency, energy_j=energy,
                          accuracy=accuracy),
    ))


class TestSelectionEquivalence:
    @settings(max_examples=examples(300), deadline=None)
    @given(specs=point_specs, goal=goals, sequence=calls)
    def test_select_matches_the_oracle(self, specs, goal, sequence):
        base = KnowledgeBase()
        for spec in specs:
            add_point(base, spec)
        points = base.points_for("k")
        manager = ApplicationManager(base, goal=goal)
        other = ApplicationManager(base, goal=Goal(GoalKind.ENERGY))
        previous, switches = None, 0
        state, features = SystemState(), DataFeatures()
        for new_state, new_features, event in sequence:
            state, features = new_state or state, new_features or features
            expected = oracle_select(points, manager.goal, state, features)
            chosen = manager.select("k", state, features)
            assert chosen is expected
            if previous is not None and \
                    previous != expected.variant.variant_id:
                switches += 1
            previous = expected.variant.variant_id
            assert manager.switches == switches
            kind = event and event[0]
            if kind in ("report", "observe", "other"):
                _, index, ratio = event
                point = chosen if index is None else \
                    points[index % len(points)]
                measured = (point.predicted_latency_s * ratio,
                            point.predicted_energy_j * ratio)
                if kind == "observe":
                    point.observe(*measured)
                elif kind == "other":
                    assert other.select("k", state, features) is \
                        oracle_select(points, other.goal, state, features)
                    other.report("k", point, *measured)
                else:
                    manager.report("k", point, *measured)
            elif kind == "goal":
                manager.goal = event[1]
            elif kind == "add":
                add_point(base, event[1])


def counting_goal():
    """A performance goal and the list its ``objective`` calls land in:
    one entry per point the manager scores."""
    calls = []

    class Counting(Goal):
        def objective(self, latency_s, energy_j):
            calls.append(latency_s)
            return super().objective(latency_s, energy_j)

    return Counting(), calls


def spread_points(count):
    """``count`` points of kernel ``k``, hardware and software mixed,
    with costs from a small pool so that many tie."""
    base = KnowledgeBase()
    for index in range(count):
        base.add_variant(make_variant(
            "k", "fpga" if index % 3 == 0 else "cpu",
            (1 + index % 7) * 1e-6, (1 + index % 5) * 1e-6,
            threads=1 + index))
    return base


class TestFeedbackLog:
    """A select re-scores the points reported since the last one, and
    the log that tells it which stays bounded."""

    @pytest.mark.parametrize("count", [8, 800])
    def test_a_select_after_one_report_scores_one_point(self, count):
        base = spread_points(count)
        points = base.points_for("k")
        goal, calls = counting_goal()
        manager = ApplicationManager(base, goal=goal)
        chosen = manager.select("k")
        assert len(calls) == count
        for point in (chosen, points[count // 2], points[-1]):
            calls.clear()
            manager.report("k", point, 3 * point.predicted_latency_s,
                           point.predicted_energy_j)
            chosen = manager.select("k")
            assert len(calls) == 1
            assert chosen is oracle_select(points, Goal(), SystemState(),
                                           DataFeatures())
        calls.clear()
        manager.select("k")
        assert calls == []

    @pytest.mark.parametrize("count", [1, 8, 800])
    def test_the_log_stays_within_its_bound(self, count):
        base = spread_points(count)
        points = base.points_for("k")
        feedback = base.feedback("k")
        goal, calls = counting_goal()
        manager = ApplicationManager(base, goal=goal)
        chosen = manager.select("k")
        for index in range(10 * count):
            calls.clear()
            manager.report("k", points[index % count],
                           (1 + index % 3) * 1e-6, 1e-6)
            chosen = manager.select("k")
            # a reader that keeps up scores one point, across restarts
            assert len(calls) == 1
            assert len(feedback) <= count
            assert len(manager._memos["k"].heap) <= 2 * count
        assert chosen is oracle_select(points, Goal(), SystemState(),
                                       DataFeatures())

    def test_a_reader_the_log_dropped_entries_on_scores_every_point(self):
        base = spread_points(8)
        points = base.points_for("k")
        goal, calls = counting_goal()
        lagging = ApplicationManager(base, goal=goal)
        assert lagging.select("k") is points[0]
        manager = ApplicationManager(base)
        manager.report("k", points[7], 0.0, 1e-6)  # now the fastest
        for _ in range(8):  # pushes points[7] out of the log
            manager.report("k", points[1], 1e-6, 1e-6)
        calls.clear()
        assert lagging.select("k") is points[7]
        assert len(calls) == 8

    @pytest.mark.parametrize("state", [
        SystemState(cpu_load=float("nan")),
        SystemState(fpga_contention=float("nan"), cpu_load=0.5),
        SystemState(fpga_contention=7.0, cpu_load=-2.0),
        SystemState(fpga_available=False, fpga_contention=-1.0,
                    cpu_load=float("inf")),
    ])
    def test_a_state_out_of_range_selects_as_a_scan_does(self, state):
        base = spread_points(8)
        points = base.points_for("k")
        manager = ApplicationManager(base)
        manager.report("k", points[0], 1e-6, 1e-6)
        assert manager.select("k", state) is oracle_select(
            points, Goal(), state, DataFeatures())
        clamped = state.clamp()
        assert 0.0 <= clamped.fpga_contention <= 1.0
        assert 0.0 <= clamped.cpu_load <= 1.0
        assert clamped.clamp() is clamped
        assert SystemState(cpu_load=float("nan")).clamp().cpu_load == 0.0
