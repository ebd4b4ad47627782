"""Bridging compiled applications into executable task graphs.

Converts the workflow-dialect pipeline of a
:class:`~repro.core.compiler.CompiledApplication` into a
:class:`~repro.workflow.graph.TaskGraph`: task durations come from each
kernel's selected variant estimate and object sizes from the IR types,
so the engine schedules with the same numbers the compiler predicted.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.compiler import CompiledApplication
from repro.core.ir.types import MemRefType, TensorType
from repro.errors import WorkflowError
from repro.workflow.graph import DataObject, TaskGraph, WorkflowTask


def _value_size(value_type) -> int:
    if isinstance(value_type, (TensorType, MemRefType)):
        return value_type.size_bytes
    return 8


def build_task_graph(
    app: CompiledApplication,
    locality: Optional[Dict[str, str]] = None,
) -> TaskGraph:
    """Build an executable graph from a compiled application.

    A task's duration is the latency estimate of its kernel's
    best-latency variant; ``locality`` maps source names to node names
    for initial data placement.
    """
    pipeline_op = None
    for op in app.module.body.operations:
        if op.name == "workflow.pipeline":
            pipeline_op = op
            break
    if pipeline_op is None:
        raise WorkflowError(
            f"application {app.name!r} has no workflow.pipeline op"
        )

    graph = TaskGraph(app.name)
    locality = locality or {}
    value_names: Dict[int, str] = {}

    block = pipeline_op.regions[0].blocks[0]
    for op in block.operations:
        if op.name == "workflow.source":
            name = op.attr("sym_name")
            obj = DataObject(
                name=name,
                size_bytes=_value_size(op.results[0].type),
                locality=locality.get(
                    name, op.attr("locality", "") or ""
                ),
            )
            if obj.locality in ("any",):
                obj.locality = ""
            graph.add_object(obj)
            value_names[id(op.results[0])] = name
        elif op.name == "workflow.task":
            task_name = op.attr("sym_name")
            kernel = op.attr("kernel")
            variant = app.exploration[kernel].best_latency()
            inputs = [
                value_names[id(operand)] for operand in op.operands
            ]
            outputs = []
            for index, result in enumerate(op.results):
                output_name = f"{task_name}.out{index}"
                outputs.append(output_name)
                value_names[id(result)] = output_name
            task = WorkflowTask(
                name=task_name,
                inputs=inputs,
                outputs=outputs,
                duration_s=variant.cost.latency_s,
                kernel=kernel,
            )
            graph.add_task(task)
            for index, result in enumerate(op.results):
                graph.set_object_size(
                    outputs[index], _value_size(result.type)
                )
        elif op.name in ("workflow.sink", "workflow.yield"):
            continue
    graph.validate()
    return graph
