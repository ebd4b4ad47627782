"""Pipeline-level contract checks (WF010/WF011) in ``Pipeline.to_ir``.

``to_ir`` is the one contract check of a pipeline: it collects every
producer→consumer mismatch — arity and shape (WF010), dtype (WF011) —
and raises one ``SpecificationError`` whose ``diagnostics`` attribute
holds them all. The compiler builds its module through it.
"""

from unittest import mock

import pytest

from repro.core import compiler
from repro.core.dsl import workflow
from repro.core.dsl.workflow import Pipeline
from repro.core.ir.types import F32, F64, TensorType
from repro.errors import SpecificationError

RELU_8 = """
kernel act(X: tensor<8xf32>) -> tensor<8xf32> {
  Y = relu(X)
  return Y
}
"""

RELU_16 = """
kernel wide(X: tensor<16xf32>) -> tensor<16xf32> {
  Y = relu(X)
  return Y
}
"""

TWO_INPUT = """
kernel blend(X: tensor<8xf32>, Y: tensor<8xf32>) -> tensor<8xf32> {
  Z = X + Y
  return Z
}
"""


def _findings(pipeline):
    with pytest.raises(SpecificationError) as info:
        pipeline.to_ir()
    return info.value.diagnostics


def _codes(diagnostics):
    return [item.code for item in diagnostics.sorted()]


def test_clean_pipeline_has_no_findings():
    pipeline = Pipeline("app")
    raw = pipeline.source("raw", TensorType((8,), F32))
    task = pipeline.task("t", RELU_8, inputs=[raw], kernel="act")
    pipeline.sink("out", task.output(0))
    assert pipeline.to_ir().find_function("act") is not None


def test_source_shape_mismatch_is_wf010():
    pipeline = Pipeline("app")
    raw = pipeline.source("raw", TensorType((16,), F32))
    pipeline.task("t", RELU_8, inputs=[raw], kernel="act")
    diagnostics = _findings(pipeline)
    assert _codes(diagnostics) == ["WF010"]
    (item,) = diagnostics.sorted()
    assert "16" in item.message and "8" in item.message
    assert item.anchor == "act/t"


def test_source_dtype_mismatch_is_wf011():
    pipeline = Pipeline("app")
    raw = pipeline.source("raw", TensorType((8,), F64))
    pipeline.task("t", RELU_8, inputs=[raw], kernel="act")
    assert _codes(_findings(pipeline)) == ["WF011"]


def test_arity_mismatch_is_wf010():
    pipeline = Pipeline("app")
    raw = pipeline.source("raw", TensorType((8,), F32))
    pipeline.task("t", TWO_INPUT, inputs=[raw], kernel="blend")
    (item,) = _findings(pipeline).sorted()
    assert item.code == "WF010"
    assert "wires 1 inputs" in item.message


def test_task_to_task_edge_is_checked():
    # act produces tensor<8xf32>; wide consumes tensor<16xf32>
    pipeline = Pipeline("app")
    raw = pipeline.source("raw", TensorType((8,), F32))
    first = pipeline.task("a", RELU_8, inputs=[raw], kernel="act")
    pipeline.task(
        "b", RELU_16, inputs=[first.output(0)], kernel="wide")
    diagnostics = _findings(pipeline)
    assert _codes(diagnostics) == ["WF010"]
    (item,) = diagnostics.sorted()
    assert "task 'b'" in item.message


def test_every_mismatch_is_collected_not_just_the_first():
    pipeline = Pipeline("app")
    wrong = pipeline.source("raw", TensorType((16,), F64))
    narrow = pipeline.source("narrow", TensorType((8,), F64))
    pipeline.task("a", RELU_8, inputs=[wrong], kernel="act")
    pipeline.task("b", RELU_8, inputs=[narrow], kernel="act")
    pipeline.task("c", TWO_INPUT, inputs=[wrong], kernel="blend")
    diagnostics = _findings(pipeline)
    assert _codes(diagnostics) == ["WF010", "WF010", "WF011"]
    assert {item.anchor for item in diagnostics} == {
        "act/a", "act/b", "blend/c"}


def test_each_distinct_source_text_compiles_once():
    calls = []
    real = workflow.compile_kernel

    def counting(text):
        calls.append(text)
        return real(text)

    pipeline = Pipeline("app")
    raw = pipeline.source("raw", TensorType((8,), F32))
    first = pipeline.task("a", RELU_8, inputs=[raw], kernel="act")
    pipeline.task("b", RELU_8, inputs=[first.output(0)], kernel="act")
    with mock.patch.object(workflow, "compile_kernel", counting):
        pipeline.to_ir()
    assert calls == [RELU_8]


def test_compile_compiles_a_one_task_pipeline_once():
    pipeline = Pipeline("app")
    raw = pipeline.source("raw", TensorType((8,), F32))
    task = pipeline.task("t", RELU_8, inputs=[raw], kernel="act")
    pipeline.sink("out", task.output(0))
    with mock.patch.object(
        workflow, "compile_kernel", wraps=workflow.compile_kernel,
    ) as spy:
        compiler.EverestCompiler(emit_artifacts=False).compile(pipeline)
    assert spy.call_count == 1
