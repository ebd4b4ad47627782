"""The spec-to-traced-run driver and the observability CLI."""

import json

import pytest

from repro.cli import main
from repro.core.analysis.specs import load_kernel_sources
from repro.errors import SpecificationError
from repro.obs import validate_chrome_trace
from repro.obs.driver import pipeline_from_sources, run_traced

SPEC = """
kernel blur(X: tensor<64xf32>, W: tensor<64xf32>) -> tensor<64xf32> {
  Y = X * W
  return Y
}
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "blur.edsl"
    path.write_text(SPEC)
    return str(path)


class TestPipelineSynthesis:
    def test_one_task_per_kernel(self):
        pipeline = pipeline_from_sources("p", [SPEC])
        assert [task.name for task in pipeline.tasks] == ["blur"]
        assert len(pipeline.sources) == 2
        assert len(pipeline.sinks) == 1

    def test_sources_typed_from_signature(self):
        pipeline = pipeline_from_sources("p", [SPEC])
        assert all(
            "64" in str(source.type) for source in pipeline.sources
        )

    def test_duplicate_kernels_taken_once(self):
        pipeline = pipeline_from_sources("p", [SPEC, SPEC])
        assert len(pipeline.tasks) == 1

    def test_rejects_sources_without_kernels(self):
        with pytest.raises(SpecificationError):
            pipeline_from_sources("p", [])

    def test_load_kernel_sources_from_python(self, tmp_path):
        path = tmp_path / "example.py"
        path.write_text(f'KERNEL = """{SPEC}"""\n')
        assert len(load_kernel_sources(str(path))) == 1

    def test_load_rejects_kernel_free_python(self, tmp_path):
        path = tmp_path / "empty.py"
        path.write_text("x = 1\n")
        with pytest.raises(SpecificationError):
            load_kernel_sources(str(path))

    def test_load_rejects_an_unreadable_file(self, tmp_path):
        with pytest.raises(SpecificationError, match="no such file"):
            load_kernel_sources(str(tmp_path / "missing.edsl"))


class TestRunTraced:
    def test_end_to_end_produces_valid_trace(self, spec_file):
        run = run_traced(spec_file)
        tracer = run.observation.tracer
        assert validate_chrome_trace(tracer.to_chrome()) == []
        categories = {event.category for event in tracer.events}
        assert "compiler.phase" in categories
        assert "dse.explore" in categories
        assert "runtime.orchestrate" in categories
        assert "workflow.task" in categories

    def test_trace_has_dse_batch_spans(self, spec_file):
        tracer = run_traced(spec_file).observation.tracer
        names = {event.name for event in tracer.events}
        assert any(name.startswith("batch:") for name in names)

    def test_logical_clock_runs_are_byte_identical(self, spec_file):
        # The second run hits the warm in-process cost cache; pricing
        # is hermetic, so the trace must not change.
        first = run_traced(spec_file).observation.tracer.to_json()
        second = run_traced(spec_file).observation.tracer.to_json()
        assert first == second

    def test_parallel_run_trace_matches_serial(self, spec_file):
        serial = run_traced(spec_file).observation.tracer.to_json()
        wide = run_traced(
            spec_file, workers=4
        ).observation.tracer.to_json()
        assert serial == wide

    def test_metrics_cover_all_layers(self, spec_file):
        metrics = run_traced(spec_file).observation.metrics
        names = metrics.names()
        assert "dse.evaluations" in names
        assert "dse.cache_hits" in names
        assert "dse.cache_misses" in names
        assert "workflow.tasks_executed" in names
        assert "runtime.deployments" in names

    def test_rejects_unknown_clock(self, spec_file):
        with pytest.raises(SpecificationError):
            run_traced(spec_file, clock="sundial")

    def test_deployment_report_complete(self, spec_file):
        report = run_traced(spec_file).report
        assert report.makespan > 0
        assert report.placement
        assert report.selections


class TestCLI:
    def test_trace_subcommand(self, spec_file, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", spec_file, "--out", str(out)]) == 0
        trace = json.loads(out.read_text())
        assert validate_chrome_trace(trace) == []
        captured = capsys.readouterr()
        assert "spans" in captured.out

    def test_run_subcommand(self, spec_file, capsys):
        assert main(["run", spec_file]) == 0
        captured = capsys.readouterr()
        assert "makespan" in captured.out
        assert "trace digest" in captured.out

    def test_metrics_subcommand_text(self, spec_file, capsys):
        assert main(["metrics", spec_file]) == 0
        captured = capsys.readouterr()
        assert "workflow.tasks_executed" in captured.out

    def test_metrics_subcommand_json(self, spec_file, capsys):
        assert main(["metrics", spec_file, "--format", "json"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert "dse.evaluations" in snapshot

    def test_chaos_trace_export(self, tmp_path, capsys):
        out = tmp_path / "chaos.json"
        assert main([
            "chaos", "--graph-seed", "1", "--fault-seed", "2",
            "--trace", str(out),
        ]) == 0
        trace = json.loads(out.read_text())
        assert validate_chrome_trace(trace) == []

    def test_trace_byte_identical_via_cli(self, spec_file, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["trace", spec_file, "--out", str(first)]) == 0
        assert main(["trace", spec_file, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
