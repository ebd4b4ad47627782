"""Integration tests: compile → place → select → distributed run."""

import pytest

from repro.chaos import ChaosSchedule, WorkerCrash
from repro.core.compiler import EverestCompiler
from repro.core.dse.space import DesignSpace
from repro.core.dsl.workflow import Pipeline
from repro.core.ir import F32, TensorType
from repro.errors import RuntimeSystemError
from repro.platform.topology import build_reference_ecosystem
from repro.runtime.autotuner.goals import Goal, GoalKind
from repro.runtime.orchestrator import Orchestrator

KERNELS = """
kernel filter(X: tensor<512xf32>, T: tensor<512xf32>)
        -> tensor<512xf32> {
  Y = maximum(X - T, fill(0.0, shape=[512]))
  return Y
}
kernel analyze(X: tensor<512xf32>, W: tensor<512xf32>)
        -> tensor<1xf32> {
  S = sum(sigmoid(X * W))
  return S
}
"""


@pytest.fixture(scope="module")
def app():
    pipeline = Pipeline("deploy-app")
    raw = pipeline.source("raw", TensorType((512,), F32))
    threshold = pipeline.source("threshold", TensorType((512,), F32))
    weights = pipeline.source("weights", TensorType((512,), F32))
    filt = pipeline.task("filter", KERNELS, inputs=[raw, threshold])
    analyze = pipeline.task(
        "analyze", KERNELS, inputs=[filt.output(0), weights]
    )
    pipeline.sink("score", analyze.output(0))
    return EverestCompiler(space=DesignSpace.small()).compile(pipeline)


@pytest.fixture(scope="module")
def ecosystem():
    return build_reference_ecosystem()


class TestOrchestrator:
    def test_deploy_completes(self, app, ecosystem):
        orchestrator = Orchestrator(ecosystem)
        report = orchestrator.deploy(app)
        assert {r.task for r in report.trace.records} == \
            {"filter", "analyze"}
        assert report.makespan > 0
        assert report.energy.total_joules > 0

    def test_placement_covers_all_tasks(self, app, ecosystem):
        report = Orchestrator(ecosystem).deploy(app)
        assert set(report.placement) == {"filter", "analyze"}
        for node_name in report.placement.values():
            assert node_name in ecosystem.nodes

    def test_selections_per_task(self, app, ecosystem):
        report = Orchestrator(ecosystem).deploy(app)
        assert set(report.selections) == {"filter", "analyze"}
        assert all(report.selections.values())

    def test_data_locality_respected(self, app, ecosystem):
        report = Orchestrator(ecosystem).deploy(
            app, data_locality={"raw": "edge-0"}
        )
        assert {r.task for r in report.trace.records} == \
            {"filter", "analyze"}

    def test_energy_goal_changes_selections(self, app, ecosystem):
        perf = Orchestrator(
            ecosystem, goal=Goal(GoalKind.PERFORMANCE)
        ).deploy(app)
        energy = Orchestrator(
            ecosystem, goal=Goal(GoalKind.ENERGY)
        ).deploy(app)
        # at least the goal is honored structurally; selections may
        # coincide if one variant dominates, but both runs complete
        assert perf.selections and energy.selections

    def test_survives_worker_failure(self, app, ecosystem):
        orchestrator = Orchestrator(ecosystem)
        clean = orchestrator.deploy(app)
        victim = clean.trace.records[0].worker
        report = orchestrator.deploy(
            app,
            chaos=ChaosSchedule(0, [WorkerCrash(victim, at_time=1e-7)]),
        )
        assert report.recovery is not None
        assert report.recovery.failures == 1
        assert {r.task for r in report.trace.records} >= \
            {"filter", "analyze"}

    @pytest.mark.parametrize("locality", [None, {"raw": "power9-0"}])
    def test_tasks_run_where_they_were_placed(self, app, ecosystem,
                                              locality):
        """An input with no locality starts where the placer assumed
        it, so each task runs on the node its variant was chosen for."""
        report = Orchestrator(ecosystem).deploy(app,
                                                data_locality=locality)
        for record in report.trace.records:
            node = record.worker.split("/")[0]
            assert node == report.placement[record.task]
            if report.selections[record.task].startswith("fpga/"):
                assert ecosystem.nodes[node].has_fpga

    @pytest.mark.parametrize("locality, named", [
        ({"raw": "edgee-0"}, "'edgee-0'"),
        ({"rwa": "edge-0"}, "'rwa'"),
    ])
    def test_unknown_locality_rejected(self, app, ecosystem, locality,
                                       named):
        with pytest.raises(RuntimeSystemError, match=named):
            Orchestrator(ecosystem).deploy(app, data_locality=locality)
