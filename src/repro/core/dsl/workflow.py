"""Workflow-pipeline builder (HyperLoom-style, paper §III-A).

Applications are end-to-end dataflows of coarse tasks. The builder API
assembles sources, tasks (each bound to a DSL kernel) and sinks, then
emits a single IR module containing the kernels (tensor dialect) plus a
``workflow.pipeline`` operation describing the orchestration — the
"single MLIR" unification of Fig. 1.

Example::

    pipeline = Pipeline("demo")
    raw = pipeline.source("raw", TensorType((64, 32), F32))
    task = pipeline.task("score", KERNEL_SRC, inputs=[raw])
    pipeline.sink("out", task.output(0))
    module = pipeline.to_ir()
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.core.dsl.annotations import (
    DataAnnotation,
    Requirement,
    SecurityAnnotation,
)
from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.ir.builder import Builder
from repro.core.ir.module import Module
from repro.core.ir.ops import Operation, Value
from repro.core.ir.types import Type, compare_contract
from repro.core.ir.verifier import verify
from repro.diagnostics import Diagnostics, raise_if_errors
from repro.errors import SpecificationError


@dataclass
class Source:
    """An external data input to the pipeline."""

    name: str
    type: Type
    annotation: Optional[DataAnnotation] = None
    security: Optional[SecurityAnnotation] = None


@dataclass
class TaskOutput:
    """Handle to one output of a task, usable as a downstream input."""

    task: "Task"
    index: int


@dataclass
class Task:
    """One computational task bound to a named DSL kernel."""

    name: str
    kernel: str
    inputs: List[Union[Source, "TaskOutput"]]
    requirements: List[Requirement] = field(default_factory=list)

    def output(self, index: int = 0) -> TaskOutput:
        """Handle to the ``index``-th output of this task."""
        return TaskOutput(self, index)


@dataclass
class Sink:
    """An external consumer of a pipeline value."""

    name: str
    value: Union[Source, TaskOutput]


class Pipeline:
    """Builder for a workflow pipeline over DSL kernels."""

    def __init__(self, name: str):
        self.name = name
        self.sources: List[Source] = []
        self.tasks: List[Task] = []
        self.sinks: List[Sink] = []
        self._kernel_sources: List[str] = []
        self._modules: Dict[str, Module] = {}

    # ------------------------------------------------------------------

    def source(
        self,
        name: str,
        type: Type,
        annotation: Optional[DataAnnotation] = None,
        security: Optional[SecurityAnnotation] = None,
    ) -> Source:
        """Declare an external input."""
        if any(existing.name == name for existing in self.sources):
            raise SpecificationError(f"duplicate source {name!r}")
        source = Source(name, type, annotation, security)
        self.sources.append(source)
        return source

    def task(
        self,
        name: str,
        kernel_source: str,
        inputs: Sequence[Union[Source, TaskOutput]],
        kernel: Optional[str] = None,
        requirements: Optional[List[Requirement]] = None,
    ) -> Task:
        """Add a task executing a DSL kernel.

        ``kernel_source`` is DSL text defining one or more kernels;
        ``kernel`` picks one by name (defaults to the task name).
        """
        if any(existing.name == name for existing in self.tasks):
            raise SpecificationError(f"duplicate task {name!r}")
        self._kernel_sources.append(kernel_source)
        task = Task(
            name=name,
            kernel=kernel or name,
            inputs=list(inputs),
            requirements=list(requirements or []),
        )
        self.tasks.append(task)
        return task

    def kernel_module(self, kernel_source: str) -> Module:
        """The compiled module of one kernel source text, compiled the
        first time the pipeline meets the text; read-only (:meth:`to_ir`
        clones its functions)."""
        if kernel_source not in self._modules:
            self._modules[kernel_source] = compile_kernel(kernel_source)
        return self._modules[kernel_source]

    def sink(self, name: str, value: Union[Source, TaskOutput]) -> Sink:
        """Declare an external output."""
        sink = Sink(name, value)
        self.sinks.append(sink)
        return sink

    # ------------------------------------------------------------------

    def to_ir(self) -> Module:
        """Emit kernels + workflow.pipeline into one verified module.

        Each distinct kernel source text is compiled once per
        pipeline (:meth:`kernel_module`). Every
        producer→consumer contract mismatch — arity or shape (WF010),
        dtype (WF011) — is collected before one
        :class:`~repro.errors.SpecificationError` is raised, whose
        ``diagnostics`` attribute holds them all.
        """
        if not self.tasks:
            raise SpecificationError(
                f"pipeline {self.name!r} has no tasks"
            )
        module = Module(self.name)
        for source_text in dict.fromkeys(self._kernel_sources):
            for function in self.kernel_module(source_text).functions():
                if module.find_function(function.name) is None:
                    clone = function.op.clone({})
                    module.body.append(clone)

        pipeline_op = Operation(
            "workflow.pipeline", attributes={"sym_name": self.name},
            num_regions=1,
        )
        module.body.append(pipeline_op)
        block = pipeline_op.regions[0].add_block()
        builder = Builder(block)

        produced: Dict[int, Value] = {}
        contracts = Diagnostics()
        for source in self.sources:
            attributes: Dict[str, object] = {"sym_name": source.name}
            if source.annotation is not None:
                attributes["locality"] = source.annotation.locality.value
            if source.security is not None:
                attributes["sensitivity"] = (
                    source.security.sensitivity.value
                )
                attributes["encrypt_in_transit"] = (
                    source.security.encrypt_in_transit
                )
            op = builder.create(
                "workflow.source",
                result_types=[source.type],
                attributes=attributes,
            )
            produced[id(source)] = op.result

        for task in self.tasks:
            function = module.find_function(task.kernel)
            if function is None:
                raise SpecificationError(
                    f"task {task.name!r} references unknown kernel "
                    f"{task.kernel!r}"
                )
            operands = []
            for input_value in task.inputs:
                key = id(input_value)
                if isinstance(input_value, TaskOutput):
                    key = id(input_value.task), input_value.index
                if key not in produced:
                    raise SpecificationError(
                        f"task {task.name!r}: input not yet produced "
                        f"(tasks must be added in dataflow order)"
                    )
                operands.append(produced[key])
            anchor = f"{task.kernel}/{task.name}"
            expected = function.type.inputs
            if len(operands) != len(expected):
                contracts.error(
                    "WF010",
                    f"task {task.name!r} wires {len(operands)} inputs "
                    f"but kernel {task.kernel!r} declares {len(expected)}",
                    anchor=anchor, analysis="absint",
                )
            else:
                for position, (operand, expected_type) in enumerate(
                    zip(operands, expected)
                ):
                    compare_contract(
                        contracts, anchor,
                        f"input {position} of task {task.name!r}",
                        operand.type, expected_type,
                    )
            op = builder.create(
                "workflow.task",
                operands=operands,
                result_types=list(function.type.results),
                attributes={"sym_name": task.name, "kernel": task.kernel},
            )
            for index, result in enumerate(op.results):
                produced[(id(task), index)] = result

        for sink in self.sinks:
            key = id(sink.value)
            if isinstance(sink.value, TaskOutput):
                key = (id(sink.value.task), sink.value.index)
            if key not in produced:
                raise SpecificationError(
                    f"sink {sink.name!r} consumes an unknown value"
                )
            builder.create(
                "workflow.sink",
                operands=[produced[key]],
                attributes={"sym_name": sink.name},
            )

        builder.create("workflow.yield")
        raise_if_errors(contracts, SpecificationError)
        verify(module)
        return module
