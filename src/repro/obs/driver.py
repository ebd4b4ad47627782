"""Spec-to-traced-run harness for the observability CLI.

``python -m repro run SPEC`` needs a whole Fig.-1 journey — compile,
explore, place, execute — from nothing but a kernel-DSL file. This
module synthesizes that journey: every kernel in the spec becomes one
pipeline task fed by fresh sources typed from the kernel's signature,
the pipeline is compiled by :class:`~repro.core.compiler.EverestCompiler`
and deployed on the reference ecosystem by the
:class:`~repro.runtime.orchestrator.Orchestrator`, all under an
observation session whose tracer and metrics the caller then exports.

With the default logical clock the resulting Chrome trace is
byte-identical across runs of the same spec; ``clock="wall"`` profiles
real time instead.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional

from repro.core.analysis.specs import load_kernel_sources
from repro.core.compiler import CompiledApplication, EverestCompiler
from repro.core.dsl.workflow import Pipeline
from repro.errors import SpecificationError
from repro.obs.context import Observation, observe, session
from repro.platform.topology import build_reference_ecosystem
from repro.runtime.orchestrator import Orchestrator


def pipeline_from_sources(name: str,
                          sources: List[str]) -> Pipeline:
    """One-task-per-kernel pipeline over the given DSL sources.

    Each kernel gets sources typed from its signature and a sink per
    result, so the generated workflow exercises every kernel exactly
    once. Kernels appearing in several source blocks are taken from
    the first. Each source is compiled once: names and signatures are
    read from the module :meth:`Pipeline.to_ir` then clones.
    """
    pipeline = Pipeline(name)
    seen = set()
    for source_text in sources:
        for function in pipeline.kernel_module(source_text).functions():
            kernel = function.name
            if kernel in seen:
                continue
            seen.add(kernel)
            inputs = [
                pipeline.source(f"{kernel}_in{index}", input_type)
                for index, input_type in enumerate(
                    function.type.inputs
                )
            ]
            task = pipeline.task(kernel, source_text, inputs=inputs)
            for index in range(len(function.type.results)):
                pipeline.sink(f"{kernel}_out{index}",
                              task.output(index))
    if not pipeline.tasks:
        raise SpecificationError(
            f"{name}: sources define no kernels"
        )
    return pipeline


@dataclass
class TracedRun:
    """Everything one observed end-to-end run produced."""

    observation: Observation
    app: CompiledApplication
    report: "DeploymentReport"


def run_traced(
    path: str,
    clock: str = "logical",
    journal: Optional["RunJournal"] = None,
    resume: Optional["ReplayState"] = None,
) -> TracedRun:
    """Compile and deploy a spec under an observation session.

    ``clock`` is ``"logical"`` (deterministic trace, the default) or
    ``"wall"`` (real profiling). Artifacts are not emitted —
    synthesizing every variant's bitstream dominates runtime and adds
    nothing to the trace shape.
    ``journal``/``resume`` make the workflow stage durable and
    resumable (see :mod:`repro.workflow.journal`).
    """
    if clock not in ("logical", "wall"):
        raise SpecificationError(
            f"unknown trace clock {clock!r}; use logical or wall"
        )
    name = os.path.splitext(os.path.basename(path))[0]
    pipeline = pipeline_from_sources(name, load_kernel_sources(path))
    obs = session(deterministic=clock == "logical")
    with observe(obs):
        compiler = EverestCompiler(emit_artifacts=False)
        app = compiler.compile(pipeline)
        ecosystem = build_reference_ecosystem()
        report = Orchestrator(ecosystem).deploy(
            app, journal=journal, resume=resume,
        )
    return TracedRun(observation=obs, app=app, report=report)
