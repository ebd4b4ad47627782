"""Self-tests of the benchmark harness, at smoke scale.

Run with ``python -m pytest benchmarks/e2e -q`` from the repo root.
They check the harness, not the program: that what ``BENCHMARK.json``
declares is what the passes emit, that the statistics and the span
arithmetic are right, that a seed fixes the inputs and the
deterministic results, that a bad output is counted and fails the
command, and that nothing is written outside the run's work dir.
"""

from __future__ import annotations

import functools
import json
import re
import statistics

import pytest

from benchmarks.e2e import cli, inputs, runner, spec
from benchmarks.e2e.compare import compare_reports, verdict
from benchmarks.e2e.spans import Span, SpanRecorder
from benchmarks.e2e.stats import quartile_spread, tail_percentile
from benchmarks.e2e.workloads import WORKLOADS

SMOKE = cli.SMOKE_SECONDS
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@functools.lru_cache(maxsize=None)
def smoke_pass(workload: str, traced: bool, seed: int = 1):
    """One smoke-scale pass, shared by the tests that only read it."""
    return runner.run_pass(workload, seed, SMOKE, traced)


# -- declarations ------------------------------------------------------


def test_names_are_well_formed_and_unique():
    declared = spec.load()
    names = ([w["name"] for w in declared["workloads"]]
             + [m["name"] for m in declared["end_to_end"]]
             + [m["name"] for m in declared["per_layer"]])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    assert "setup_s" in spec.end_to_end()
    assert all(0 < m["bound"] <= 0.25
               for m in declared["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in declared["workloads"])


def test_declared_workloads_are_the_implemented_ones():
    assert set(spec.workload_names()) == set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_pass_emits_every_end_to_end_metric(workload):
    result = smoke_pass(workload, False)
    assert not result.failures
    assert set(result.metrics) == set(spec.end_to_end())
    assert all(value > 0 for value in result.metrics.values())
    line = result.contract()
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1
    assert set(line["metrics"]) == set(spec.end_to_end())


def test_traced_passes_emit_the_declared_per_layer_metrics():
    declared = set(spec.per_layer())
    seen_nonzero = set()
    for workload in WORKLOADS:
        result = smoke_pass(workload, True)
        assert not result.failures
        assert set(result.metrics) <= declared, (
            set(result.metrics) - declared)
        assert set(result.contract()["metrics"]) == declared
        assert "bench.trace_overhead_pct" in result.metrics
        seen_nonzero |= {name for name, value in result.metrics.items()
                         if value}
    # every declared layer metric is measured by some workload
    assert declared - seen_nonzero <= {"core.analysis.findings"}


def test_workloads_discriminate_between_layers():
    for workload in ("compile_cold", "compile_warm"):
        metrics = smoke_pass(workload, True).metrics
        assert metrics["bench.share_compile"] >= 0.8
        # one or two reference ops at this scale: only a sanity band
        assert 0.5 <= metrics["core.compiler.trace_coverage"] <= 2.0
    for workload in ("workflow_plain", "workflow_chaos"):
        metrics = smoke_pass(workload, True).metrics
        assert metrics["bench.share_workflow"] >= 0.8
        assert metrics.get("bench.share_compile", 0.0) < 0.05
    service = smoke_pass("service_drain", True).metrics
    assert service["bench.share_service"] >= 0.5
    assert service.get("bench.share_compile", 0.0) < 0.05
    cold = smoke_pass("compile_cold", True).metrics
    warm = smoke_pass("compile_warm", True).metrics
    assert (warm["core.backend.emit_s"] / warm["core.compiler.compile_s"]
            > cold["core.backend.emit_s"]
            / cold["core.compiler.compile_s"])


# -- statistics and span arithmetic ------------------------------------


def test_tail_percentile_rule():
    assert tail_percentile(19) == 50
    assert tail_percentile(20) == 50
    assert tail_percentile(39) == 50
    assert tail_percentile(40) == 75
    assert tail_percentile(99) == 75
    assert tail_percentile(100) == 90
    assert tail_percentile(200) == 95
    assert tail_percentile(1000) == 99


def test_quartile_spread_matches_the_contract_formula():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    first, middle, third = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == (third - first) / middle


def _span(recorder, name, start, end, parent):
    span = Span(name, start, parent, op=1)
    span.end = end
    recorder.spans.append(span)
    return len(recorder.spans) - 1


def test_nested_span_self_time():
    recorder = SpanRecorder()
    root = _span(recorder, "bench.op", 0.0, 10.0, -1)
    compile_ = _span(recorder, "core.compiler.compile", 1.0, 9.0, root)
    explore = _span(recorder, "core.dse.explore", 2.0, 6.0, compile_)
    _span(recorder, "core.hls.synthesize", 3.0, 4.0, explore)
    _span(recorder, "core.hls.synthesize", 4.5, 5.5, explore)
    _span(recorder, "core.hls.synthesize", 7.0, 8.0, compile_)
    assert recorder.self_seconds() == [2.0, 3.0, 2.0, 1.0, 1.0, 1.0]
    self_s, inclusive_s, calls = recorder.totals()
    assert self_s["core.hls.synthesize"] == 3.0
    assert inclusive_s["core.dse.explore"] == 4.0
    assert calls["core.hls.synthesize"] == 3
    layers = recorder.layer_self_seconds()
    assert layers == {"bench": 2.0, "core.compiler": 3.0,
                      "core.dse": 2.0, "core.hls": 3.0}
    assert sum(layers.values()) == 10.0


def test_same_name_nesting_counts_inclusive_time_once():
    recorder = SpanRecorder()
    outer = _span(recorder, "workflow.journal.append", 0.0, 4.0, -1)
    _span(recorder, "workflow.journal.append", 1.0, 3.0, outer)
    _self, inclusive_s, calls = recorder.totals()
    assert inclusive_s["workflow.journal.append"] == 4.0
    assert calls["workflow.journal.append"] == 2


def test_wrapper_records_only_inside_an_op():
    recorder = SpanRecorder()
    wrapped = recorder.wrap(lambda value: value + 1, "core.ir.digest")
    assert wrapped(1) == 2 and not recorder.spans
    with recorder.span("bench.op"):
        assert wrapped(2) == 3
    assert [span.name for span in recorder.spans] == [
        "bench.op", "core.ir.digest"]
    assert recorder.spans[1].parent == 0


# -- seeds, determinism, failures, isolation ---------------------------


def test_same_seed_same_inputs_and_results_other_seed_differs():
    first = smoke_pass("workflow_plain", False)
    again = runner.run_pass("workflow_plain", 1, SMOKE, False)
    other = smoke_pass("workflow_plain", False, seed=2)
    assert first.detail["input_digest"] == again.detail["input_digest"]
    assert (first.detail["deterministic"]
            == again.detail["deterministic"])
    assert first.detail["input_digest"] != other.detail["input_digest"]
    assert not other.failures
    for workload in WORKLOADS.values():
        assert (inputs.digest_of(workload.descriptors(1, 4))
                != inputs.digest_of(workload.descriptors(2, 4)))


def test_numpy_references_are_independent_and_seeded():
    kernel = inputs.kernel_input(1, 2)
    arguments = inputs.reference_arguments(
        kernel, inputs.rng_for(1, "t", 0))
    expected = inputs.reference_output(kernel, arguments)
    assert expected.shape == kernel.out_shape
    assert inputs.kernel_input(1, 2) == kernel
    assert inputs.kernel_input(2, 2).source != kernel.source


def _drop_a_record(index, outcome):
    trace, stats = outcome
    if index == 2:
        del trace.records[0]
    return trace, stats


def test_bad_output_is_counted_and_fails_the_command(monkeypatch,
                                                     capsys):
    result = runner.run_pass("workflow_plain", 1, SMOKE, False,
                             corrupt=_drop_a_record)
    assert result.failed == 1 and result.attempted > 1
    assert result.contract()["correct"] is False

    monkeypatch.setattr(
        runner, "run_pass",
        functools.partial(runner.run_pass, corrupt=_drop_a_record))
    status = cli.main(["run", "--workload", "workflow_plain",
                       "--seconds", str(SMOKE), "--trace", "0"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert status == 1
    assert json.loads(last)["failed"] == 1


def test_state_stays_inside_the_work_dir(monkeypatch, tmp_path):
    home = tmp_path / "home"
    home.mkdir()
    monkeypatch.setenv("HOME", str(home))
    monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
    monkeypatch.delenv("XDG_STATE_HOME", raising=False)
    before = set(runner.ROOT.iterdir())
    for workload in ("compile_warm", "workflow_chaos", "service_drain"):
        result = runner.run_pass(workload, 3, SMOKE / 2, False)
        assert not result.failures
    assert list(home.iterdir()) == []
    assert set(runner.ROOT.iterdir()) - before <= {runner.WORK_ROOT}
    assert (not runner.WORK_ROOT.exists()
            or list(runner.WORK_ROOT.iterdir()) == [])


# -- compare -----------------------------------------------------------


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert verdict(steady, steady, "lower", 0.10)[0] == "same"
    assert verdict(steady, [v * 1.3 for v in steady],
                   "lower", 0.10)[0] == "worse"
    assert verdict(steady, [v * 1.3 for v in steady],
                   "higher", 0.10)[0] == "better"
    noisy = [60.0, 100.0, 140.0, 180.0]
    assert verdict(noisy, [v * 1.15 for v in noisy],
                   "lower", 0.10)[0] == "unresolved"
    assert verdict(noisy, [v * 4 for v in noisy],
                   "lower", 0.10)[0] == "worse"
    assert verdict([100.0], [150.0], "lower", 0.10)[0] == "unresolved"
    assert verdict([100.0], [105.0], "lower", 0.10)[0] == "same"


def test_compare_enforces_exact_results():
    run = smoke_pass("workflow_plain", False).to_json()
    traced = smoke_pass("workflow_plain", True).to_json()
    report = {"seed": 1, "seconds": SMOKE, "workloads": {
        "workflow_plain": {"end_to_end": [run], "per_layer": [traced]},
    }}
    rows, any_worse = compare_reports(report, report)
    assert not any_worse
    assert sum("workflow_plain" in row for row in rows) >= len(
        spec.end_to_end())
    changed = json.loads(json.dumps(report))
    changed["workloads"]["workflow_plain"]["end_to_end"][0][
        "detail"]["deterministic"]["sim_makespan_s"] += 1.0
    rows, any_worse = compare_reports(report, changed)
    assert any_worse
    assert any("sim_makespan_s" in row for row in rows)
