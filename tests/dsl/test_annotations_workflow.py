"""Tests for annotations and the pipeline builder."""

import pytest

from repro.core.dsl.annotations import (
    DataAnnotation,
    Locality,
    Requirement,
    RequirementKind,
    SecurityAnnotation,
    Sensitivity,
)
from repro.core.dsl.workflow import Pipeline
from repro.core.ir import F32, TensorType
from repro.errors import SpecificationError

KERNEL = """
kernel double(X: tensor<8xf32>) -> tensor<8xf32> {
  Y = X * 2.0
  return Y
}
"""


class TestDataAnnotation:

    def test_negative_velocity(self):
        with pytest.raises(SpecificationError):
            DataAnnotation("x", velocity_bytes_per_s=-1.0)

    def test_defaults_describe_an_empty_dataset_anywhere(self):
        annotation = DataAnnotation("x")
        assert (annotation.velocity_bytes_per_s,
                annotation.locality) == (0.0, Locality.ANY)


class TestRequirement:
    def test_latency_is_upper_bound(self):
        req = Requirement(RequirementKind.LATENCY, 1.0)
        assert req.satisfied_by(0.5)
        assert not req.satisfied_by(2.0)

    def test_throughput_is_lower_bound(self):
        req = Requirement(RequirementKind.THROUGHPUT, 100.0)
        assert req.satisfied_by(200.0)
        assert not req.satisfied_by(50.0)

    def test_positive_value_required(self):
        with pytest.raises(ValueError):
            Requirement(RequirementKind.LATENCY, 0.0)


class TestPipelineBuilder:
    def test_minimal_pipeline(self):
        pipeline = Pipeline("p")
        source = pipeline.source("in", TensorType((8,), F32))
        task = pipeline.task("double", KERNEL, inputs=[source])
        pipeline.sink("out", task.output(0))
        module = pipeline.to_ir()
        assert module.find_function("double") is not None
        ops = [op.name for op in module.walk()]
        assert "workflow.pipeline" in ops
        assert "workflow.source" in ops
        assert "workflow.sink" in ops

    def test_empty_pipeline_rejected(self):
        with pytest.raises(SpecificationError, match="no tasks"):
            Pipeline("p").to_ir()

    def test_duplicate_source_rejected(self):
        pipeline = Pipeline("p")
        pipeline.source("in", TensorType((8,), F32))
        with pytest.raises(SpecificationError, match="duplicate"):
            pipeline.source("in", TensorType((8,), F32))

    def test_unknown_kernel_rejected(self):
        pipeline = Pipeline("p")
        source = pipeline.source("in", TensorType((8,), F32))
        pipeline.task("t", KERNEL, inputs=[source], kernel="ghost")
        with pytest.raises(SpecificationError, match="unknown kernel"):
            pipeline.to_ir()

    def test_arity_mismatch_rejected(self):
        pipeline = Pipeline("p")
        source = pipeline.source("in", TensorType((8,), F32))
        pipeline.task("double", KERNEL, inputs=[source, source])
        with pytest.raises(SpecificationError, match="WF010.*declares 1"):
            pipeline.to_ir()

    def test_type_mismatch_rejected(self):
        pipeline = Pipeline("p")
        source = pipeline.source("in", TensorType((16,), F32))
        pipeline.task("double", KERNEL, inputs=[source])
        with pytest.raises(SpecificationError, match="WF010.*shape 16"):
            pipeline.to_ir()

    def test_chained_tasks(self):
        pipeline = Pipeline("p")
        source = pipeline.source("in", TensorType((8,), F32))
        first = pipeline.task("double", KERNEL, inputs=[source])
        second = pipeline.task(
            "again", KERNEL, inputs=[first.output(0)], kernel="double"
        )
        pipeline.sink("out", second.output(0))
        module = pipeline.to_ir()
        tasks = [
            op for op in module.walk() if op.name == "workflow.task"
        ]
        assert len(tasks) == 2
        assert tasks[1].operands[0] is tasks[0].results[0]

    def test_annotations_propagate_to_ir(self):
        pipeline = Pipeline("p")
        source = pipeline.source(
            "in", TensorType((8,), F32),
            annotation=DataAnnotation(
                "in", velocity_bytes_per_s=1024.0, locality=Locality.EDGE
            ),
            security=SecurityAnnotation(sensitivity=Sensitivity.SECRET),
        )
        task = pipeline.task("double", KERNEL, inputs=[source])
        pipeline.sink("out", task.output(0))
        module = pipeline.to_ir()
        source_op = next(
            op for op in module.walk() if op.name == "workflow.source"
        )
        assert source_op.attr("locality") == "edge"
        assert source_op.attr("sensitivity") == "secret"

    def test_out_of_order_task_rejected(self):
        pipeline = Pipeline("p")
        source = pipeline.source("in", TensorType((8,), F32))
        later = pipeline.task("b", KERNEL, inputs=[source],
                              kernel="double")
        # 'a' consumes b's output but tasks list order is a-then-b? No:
        # build a task consuming an output of a task added *after* it.
        pipeline.tasks.reverse()
        pipeline.tasks.insert(0, pipeline.task(
            "a", KERNEL, inputs=[later.output(0)], kernel="double"
        ))
        pipeline.tasks = [t for i, t in enumerate(pipeline.tasks)
                          if t.name != "a" or i == 0]
        with pytest.raises(SpecificationError, match="dataflow order"):
            pipeline.to_ir()
