"""Tests for the runtime executor and tier placement."""

from collections import Counter
from dataclasses import replace

import pytest

from repro.core.compiler import EverestCompiler
from repro.core.dse.space import DesignSpace
from repro.core.dsl.workflow import Pipeline
from repro.core.ir import F32, TensorType
from repro.core.variants import CostEstimate, Variant, VariantKnobs
from repro.errors import RuntimeSystemError
from repro.platform.topology import build_reference_ecosystem
from repro.runtime.autotuner.data_features import DataFeatures
from repro.runtime.autotuner.goals import Goal
from repro.runtime.autotuner.knowledge import KnowledgeBase
from repro.runtime.autotuner.manager import (
    ApplicationManager,
    SystemState,
)
from repro.runtime.executor import RuntimeExecutor, default_reality
from repro.runtime.scheduler import TierPlacer
from repro.workflow.graph import DataObject, TaskGraph, WorkflowTask
from repro.workflow.plan import build_task_graph
from tests import goldens

KERNEL = """
kernel scale(A: tensor<64xf32>, B: tensor<64xf32>) -> tensor<64xf32> {
  C = exp(A) * B
  return C
}
"""


def demo_app():
    pipeline = Pipeline("demo")
    a = pipeline.source("a", TensorType((64,), F32))
    b = pipeline.source("b", TensorType((64,), F32))
    task = pipeline.task("scale", KERNEL, inputs=[a, b])
    pipeline.sink("out", task.output(0))
    return EverestCompiler(space=DesignSpace.small()).compile(pipeline)


@pytest.fixture(scope="module")
def app():
    return demo_app()


class TestBuildTaskGraph:
    def test_graph_structure(self, app):
        graph = build_task_graph(app)
        assert set(graph.tasks) == {"scale"}
        assert {obj.name for obj in graph.external_inputs()} == \
            {"a", "b"}

    def test_durations_from_variants(self, app):
        graph = build_task_graph(app)
        best = app.exploration["scale"].best_latency()
        assert graph.tasks["scale"].duration_s == pytest.approx(
            best.cost.latency_s
        )

    def test_object_sizes_from_types(self, app):
        graph = build_task_graph(app)
        assert graph.objects["a"].size_bytes == 64 * 4


class TestRuntimeExecutor:
    def test_rounds_complete(self, app):
        executor = RuntimeExecutor(app)
        report = executor.run(5)
        assert len(report.rounds) == 5
        assert report.total_latency_s > 0
        assert report.total_energy_j > 0

    def test_zero_rounds_rejected(self, app):
        with pytest.raises(RuntimeSystemError):
            RuntimeExecutor(app).run(0)

    def test_adaptation_switches_under_contention(self, app):
        executor = RuntimeExecutor(app)

        def schedule(index):
            if index < 8:
                return SystemState(), DataFeatures()
            return SystemState(fpga_available=False), DataFeatures()

        report = executor.run(16, schedule)
        timeline = report.selections_timeline("scale")
        assert "fpga" in timeline[0]
        assert "cpu" in timeline[-1]
        assert report.switches >= 1

    def test_static_executor_never_switches(self, app):
        executor = RuntimeExecutor(app, adaptive=False)

        def schedule(index):
            return (
                SystemState(fpga_contention=float(index % 2)),
                DataFeatures(),
            )

        report = executor.run(10, schedule)
        timeline = report.selections_timeline("scale")
        assert len(set(timeline)) == 1

    def test_reconfiguration_counted_once_for_stable_choice(self, app):
        executor = RuntimeExecutor(app)
        report = executor.run(6)
        # stable selection: at most one reconfiguration per role used
        assert report.reconfigurations <= 2

    def test_adaptive_beats_static_under_drift(self, app):
        """Feedback loop: reality degrades the FPGA far more than the
        decision maker's prior model expects; the adaptive executor
        learns from measurements and switches, the static one cannot.
        """

        def harsh_reality(point, state, features):
            latency = point.predicted_latency_s
            energy = point.predicted_energy_j
            if point.variant.is_hardware and \
                    state.fpga_contention > 0.5:
                latency *= 200.0
            return latency, energy

        def schedule(index):
            if index < 5:
                return SystemState(), DataFeatures()
            return SystemState(fpga_contention=1.0), DataFeatures()

        adaptive = RuntimeExecutor(
            app, reality=harsh_reality
        ).run(40, schedule)
        static = RuntimeExecutor(
            app, adaptive=False, reality=harsh_reality
        ).run(40, schedule)
        assert adaptive.total_latency_s < static.total_latency_s
        timeline = adaptive.selections_timeline("scale")
        assert "fpga" in timeline[0]
        assert "cpu" in timeline[-1]

    def test_energy_meter_populated(self, app):
        report = RuntimeExecutor(app).run(3)
        assert report.energy.total_joules == pytest.approx(
            report.total_energy_j
        )


#: Phases the golden schedule cycles through: nominal, FPGA
#: contention with sparse input, FPGA loss under CPU load with bursty
#: input, and a mix of all of them.
PHASES = [
    (SystemState(), DataFeatures()),
    (SystemState(fpga_contention=0.8), DataFeatures(sparsity=0.6)),
    (SystemState(fpga_available=False, cpu_load=0.7),
     DataFeatures(burstiness=0.9)),
    (SystemState(cpu_load=0.4, fpga_contention=0.3),
     DataFeatures(sparsity=0.3, burstiness=0.5)),
]

#: The round whose oversized input the hardware monitor flags.
SPIKE = 40


def oversized_input_reality(app):
    """The default reality, with round ``SPIKE``'s input 40 times the
    compile-time shape."""
    truth, rounds = default_reality(app.name), Counter()

    def model(point, state, features):
        rounds[point.variant.kernel] += 1
        if rounds[point.variant.kernel] == SPIKE + 1:
            point = replace(
                point, predicted_latency_s=40.0 * point.predicted_latency_s,
                predicted_energy_j=40.0 * point.predicted_energy_j)
        return truth(point, state, features)

    return model


@goldens.suite("executor", ["crossing"])
def crossing_schedule(_key):
    """What the executor decides over 60 rounds of ``PHASES``, with
    round ``SPIKE``'s input oversized."""
    app = demo_app()
    report = RuntimeExecutor(app, reality=oversized_input_reality(
        app)).run(60, lambda index: PHASES[index % len(PHASES)])
    return {
        "timeline": report.selections_timeline("scale"),
        "switches": report.switches,
        "incidents": report.incidents,
        "reconfigurations": report.reconfigurations,
        "total_latency_s": repr(report.total_latency_s),
    }


def test_crossing_schedule_pinned():
    """What the executor decides, pinned across every selection input:
    recorded on the commit before a select scored a kernel's points in
    one flat pass, and held since through the memoized select."""
    record = goldens.check("executor", "crossing")
    # the schedule does cross what it claims to
    assert record["incidents"] == 1
    assert {"fpga", "cpu"} <= {entry.split("/")[0]
                               for entry in record["timeline"]}


def knowledge_of(count):
    """``count`` points of kernel ``k``, alternating CPU and FPGA."""
    base = KnowledgeBase()
    for index in range(count):
        base.add_variant(Variant(
            kernel="k",
            knobs=VariantKnobs(
                target="fpga" if index % 2 else "cpu",
                threads=index + 1, unroll=index + 1,
            ),
            cost=CostEstimate(latency_s=1e-6 * (index + 1),
                              energy_j=1e-6 * (count - index)),
        ))
    return base


def count_calls(monkeypatch, cls, name):
    """Count the calls of ``cls.name`` from now on."""
    calls, original = [], getattr(cls, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cls, name, counted)
    return calls


class TestCallCounts:
    """A select's and a round's cost do not grow with repeated work."""

    @pytest.mark.parametrize("count", [3, 60])
    def test_select_reads_each_feature_factor_at_most_twice(
            self, monkeypatch, count):
        base = knowledge_of(count)
        latency = count_calls(monkeypatch, DataFeatures, "latency_factor")
        energy = count_calls(monkeypatch, DataFeatures, "energy_factor")
        ApplicationManager(base).select(
            "k", SystemState(fpga_contention=0.4),
            DataFeatures(sparsity=0.2),
        )
        assert len(latency) <= 2
        assert len(energy) <= 2

    def test_repeated_select_scores_no_point(self, monkeypatch):
        manager = ApplicationManager(knowledge_of(60))
        state = SystemState(fpga_contention=0.4, cpu_load=0.1)
        features = DataFeatures(sparsity=0.2)
        first = manager.select("k", state, features)
        calls = count_calls(monkeypatch, Goal, "objective")
        assert manager.select("k", SystemState(
            fpga_contention=0.4, cpu_load=0.1), features) is first
        assert calls == []

    def test_select_after_a_report_scores_one_point(self, monkeypatch):
        manager = ApplicationManager(knowledge_of(60))
        point = manager.select("k")
        manager.report("k", point, 5 * point.predicted_latency_s,
                       point.predicted_energy_j)
        calls = count_calls(monkeypatch, Goal, "objective")
        manager.select("k")
        assert len(calls) == 1

    def test_rounds_describe_each_point_at_most_once(self, app,
                                                      monkeypatch):
        calls = count_calls(monkeypatch, VariantKnobs, "describe")
        executor = RuntimeExecutor(app)
        executor.run(100)
        assert len(calls) <= len(executor.knowledge.points_for("scale"))

    def test_rounds_do_not_reorder_the_graph(self, app, monkeypatch):
        executor = RuntimeExecutor(app)
        calls = []
        original = TaskGraph.topological_order

        def counted(graph):
            calls.append(graph)
            return original(graph)

        monkeypatch.setattr(TaskGraph, "topological_order", counted)
        executor.run(100)
        assert calls == []

    def test_forced_alert_rounds_keep_the_selects_memo(self, app,
                                                        monkeypatch):
        executor = RuntimeExecutor(app)
        executor.protection.report("timing-anomaly", "planted")
        executor.run_round(0)
        calls = count_calls(monkeypatch, ApplicationManager, "_recall")
        for index in range(1, 20):
            executor.run_round(index)
        assert calls == []


class TestTierPlacer:
    def make_graph(self, size_bytes=10**6, duration=0.01):
        graph = TaskGraph("g")
        graph.add_object(DataObject(
            "sensor", size_bytes=size_bytes, locality="edge-0"
        ))
        graph.add_task(WorkflowTask(
            "filter", inputs=["sensor"], outputs=["filtered"],
            duration_s=duration,
        ))
        graph.tasks["filter"].outputs and graph.set_object_size(
            "filtered", size_bytes // 10
        )
        graph.add_task(WorkflowTask(
            "analyze", inputs=["filtered"], outputs=["result"],
            duration_s=duration * 10,
        ))
        return graph

    def test_assignments_cover_all_tasks(self):
        eco = build_reference_ecosystem()
        placement = TierPlacer(eco).place(self.make_graph())
        assert set(placement.assignments) == {"filter", "analyze"}

    def test_big_data_filter_stays_at_edge(self):
        eco = build_reference_ecosystem(uplink_mbps=10.0)
        placement = TierPlacer(eco).place(
            self.make_graph(size_bytes=50 * 10**6, duration=0.05)
        )
        assert placement.assignments["filter"].startswith("edge")

    def test_compute_heavy_small_data_goes_to_cloud(self):
        eco = build_reference_ecosystem()
        graph = TaskGraph("g")
        graph.add_object(DataObject("tiny", size_bytes=100,
                                    locality="edge-0"))
        graph.add_task(WorkflowTask(
            "train", inputs=["tiny"], outputs=["model"],
            duration_s=30.0,
        ))
        placement = TierPlacer(eco).place(graph)
        node = eco.nodes[placement.assignments["train"]]
        assert node.arch in ("ppc64le", "x86")

    def test_edge_placement_beats_cloud_for_streaming(self):
        eco = build_reference_ecosystem(uplink_mbps=10.0)
        graph = self.make_graph(size_bytes=20 * 10**6, duration=0.02)
        placer = TierPlacer(eco)
        smart = placer.place(graph)
        all_cloud = placer.place_fixed(graph, "power9-0")
        assert smart.total_seconds < all_cloud.total_seconds
        assert smart.bytes_moved <= all_cloud.bytes_moved

    def test_unknown_fixed_node(self):
        eco = build_reference_ecosystem()
        with pytest.raises(RuntimeSystemError):
            TierPlacer(eco).place_fixed(self.make_graph(), "ghost")
