"""Functional execution of workflow pipelines.

The workflow engine simulates *timing*; this module executes the
*data*: it walks a module's ``workflow.pipeline`` op in dataflow order,
runs each task's kernel with the reference interpreter, and returns the
values delivered to each sink. Used for end-to-end functional
verification of compiled applications — the answer a deployment would
compute, independent of where things run.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro.core.ir.interp import Interpreter
from repro.core.ir.module import Module
from repro.core.ir.types import TensorType
from repro.errors import SpecificationError, WorkflowError


def execute_pipeline(
    module: Module,
    feeds: Dict[str, Any],
) -> Dict[str, Any]:
    """Run the module's pipeline functionally; returns {sink name: value}.

    ``feeds`` maps every ``workflow.source`` symbol to its input value
    (numpy arrays for tensors, Python scalars otherwise). Kernels are
    executed in tensor form with the reference interpreter.
    """
    pipeline_op = next((op for op in module.body.operations
                        if op.name == "workflow.pipeline"), None)
    if pipeline_op is None:
        raise WorkflowError("module has no workflow.pipeline")

    interpreter = Interpreter(module)
    values: Dict[int, Any] = {}
    outputs: Dict[str, Any] = {}

    block = pipeline_op.regions[0].blocks[0]
    for op in block.operations:
        if op.name == "workflow.source":
            name = op.attr("sym_name")
            if name not in feeds:
                raise SpecificationError(
                    f"no feed provided for source {name!r}"
                )
            declared = op.results[0].type
            value = feeds[name]
            if isinstance(declared, TensorType):
                value = np.asarray(value, dtype=np.float32)
                if tuple(value.shape) != tuple(declared.shape):
                    raise SpecificationError(
                        f"source {name!r}: feed shape {value.shape} "
                        f"does not match declared {declared.shape}"
                    )
            values[id(op.results[0])] = value
        elif op.name == "workflow.task":
            kernel = op.attr("kernel")
            arguments = [
                values[id(operand)] for operand in op.operands
            ]
            results = interpreter.run(kernel, *arguments)
            for value, result in zip(op.results, results):
                values[id(value)] = result
        elif op.name == "workflow.sink":
            outputs[op.attr("sym_name")] = values[id(op.operands[0])]
        elif op.name == "workflow.yield":
            break
    unknown = set(feeds) - {
        op.attr("sym_name")
        for op in block.operations
        if op.name == "workflow.source"
    }
    if unknown:
        raise SpecificationError(
            f"feeds for unknown sources: {sorted(unknown)}"
        )
    return outputs


def pipeline_io(module: Module) -> Dict[str, List[str]]:
    """Source and sink names of the module's pipeline: {"sources":
    [...], "sinks": [...]}."""
    for op in module.body.operations:
        if op.name != "workflow.pipeline":
            continue
        block = op.regions[0].blocks[0]
        return {
            "sources": [
                inner.attr("sym_name")
                for inner in block.operations
                if inner.name == "workflow.source"
            ],
            "sinks": [
                inner.attr("sym_name")
                for inner in block.operations
                if inner.name == "workflow.sink"
            ],
        }
    raise WorkflowError("module has no workflow.pipeline")
