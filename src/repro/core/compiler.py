"""End-to-end compilation driver (the whole of paper Fig. 1).

:class:`EverestCompiler` ties the SDK together: a workflow
:class:`~repro.core.dsl.workflow.Pipeline` goes in; out comes a
:class:`CompiledApplication` holding the unified IR module, the
per-kernel exploration results, and a signed
:class:`~repro.core.backend.packaging.VariantPackage` with binaries and
bitstreams ready for the runtime.

Security annotations on pipeline sources propagate to the kernels
consuming them (transitively through task outputs), forcing DIFT
instrumentation on those kernels' variants.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.core.analysis import analyze_module_cached
from repro.core.analysis.taint import pipeline_labels
from repro.core.backend.binary import Artifact, SoftwareBinary
from repro.core.backend.packaging import VariantPackage
from repro.core.backend.sycl_gen import generate_sycl
from repro.core.dse.cost_model import (
    ArchitectureModel,
    prepare_variant_module,
)
from repro.core.dse.explorer import ExplorationResult, Explorer
from repro.core.dse.space import DesignSpace
from repro.core.dsl.workflow import Pipeline
from repro.core.ir.digest import module_digest
from repro.core.ir.module import Module
from repro.diagnostics import Diagnostics, raise_if_errors
from repro.errors import AnalysisError, BackendError
from repro.obs import Observation, current_metrics, current_tracer, observe

#: Tracer category for compile-driver phase spans.
COMPILE_CATEGORY = "compiler.phase"


@dataclass
class CompiledApplication:
    """The compiler's output for one pipeline."""

    name: str
    module: Module
    exploration: Dict[str, ExplorationResult] = field(default_factory=dict)
    package: VariantPackage = None  # type: ignore[assignment]
    sensitive_kernels: Set[str] = field(default_factory=set)
    #: Findings of the pre-DSE static-analysis gate (never errors —
    #: those abort compilation with an AnalysisError).
    diagnostics: Diagnostics = field(default_factory=Diagnostics)

    def summary(self) -> str:
        """Multi-line compilation report."""
        lines = [f"application {self.name}"]
        for kernel, result in self.exploration.items():
            front = ", ".join(v.knobs.describe() for v in result.front)
            marker = " [dift]" if kernel in self.sensitive_kernels else ""
            lines.append(
                f"  {kernel}{marker}: {result.evaluations} points, "
                f"{len(result.front)} on front ({front})"
            )
        return "\n".join(lines)


class EverestCompiler:
    """Drives frontend → middle-end → backend for a pipeline."""

    def __init__(
        self,
        space: Optional[DesignSpace] = None,
        model: Optional[ArchitectureModel] = None,
        signing_key: str = "everest-demo-key",
        emit_artifacts: bool = True,
        static_checks: bool = True,
    ):
        self.space = space or DesignSpace.small()
        self.model = model or ArchitectureModel()
        self.signing_key = signing_key
        self.emit_artifacts = emit_artifacts
        self.static_checks = static_checks

    # ------------------------------------------------------------------

    def compile(self, pipeline: Pipeline) -> CompiledApplication:
        """Compile a pipeline into variants + artifacts."""
        tracer = current_tracer()
        metrics = current_metrics()
        with tracer.span(f"compile:{pipeline.name}",
                         category=COMPILE_CATEGORY) as compile_span:
            with tracer.span("frontend", category=COMPILE_CATEGORY):
                module = pipeline.to_ir()
                sensitive_kernels = _mark_sensitive_args(module)

            # One digest for the whole compile: every downstream
            # consumer (analysis gate, explorer, artifact packaging)
            # keys its caches off this hash instead of re-digesting.
            # The version-counter memo makes re-digesting free anyway;
            # threading it removes the footgun entirely.
            digest = module_digest(module)

            diagnostics = Diagnostics()
            if self.static_checks:
                # Pre-DSE gate: exploring or synthesizing a module that
                # statically violates a secure.* policy, banks memory
                # illegally or wires mismatched task contracts would
                # only waste the DSE budget. The IR analyses are
                # memoized by the module's content digest — recompiling
                # an unchanged pipeline replays the stored findings.
                with tracer.span("static-checks",
                                 category=COMPILE_CATEGORY) as span:
                    # Whether the per-pass spans fire depends on
                    # cache warmth; mute the tracer (but keep the
                    # ambient metrics, which carry the hit/miss
                    # counters) so identical compiles produce
                    # identical traces at any cache temperature.
                    with observe(Observation(metrics=metrics)):
                        cached, _facts, _hit = analyze_module_cached(
                            module, digest=digest)
                    diagnostics.extend(cached)
                    span.note(findings=len(diagnostics.items))
                raise_if_errors(diagnostics, AnalysisError)

            app = CompiledApplication(
                name=pipeline.name,
                module=module,
                package=VariantPackage(
                    application=pipeline.name,
                    signing_key=self.signing_key,
                ),
                sensitive_kernels=sensitive_kernels,
                diagnostics=diagnostics,
            )

            for task in pipeline.tasks:
                kernel = task.kernel
                if kernel in app.exploration:
                    continue
                space = self.space
                if kernel in sensitive_kernels:
                    space = dataclasses.replace(
                        space, dift_options=(True,)
                    )
                explorer = Explorer(
                    module, kernel, space=space, model=self.model,
                    requirements=list(task.requirements),
                    digest=digest,
                )
                result = explorer.run()
                app.exploration[kernel] = result
                # Package every feasible variant: points off the Pareto
                # front still matter at run time, when contention or
                # data features shift the effective costs (mARGOt keeps
                # the full operating-point list).
                with tracer.span(f"package:{kernel}",
                                 category=COMPILE_CATEGORY) as span:
                    sources: Dict[Module, str] = {}
                    for variant in result.feasible:
                        artifact = (
                            self._build_artifact(
                                module, variant, digest, sources)
                            if self.emit_artifacts else None
                        )
                        app.package.add_variant(variant, artifact)
                    span.note(variants=len(result.feasible))
                metrics.counter(
                    "compiler.variants_packaged",
                    "variants added to packages",
                ).inc(len(result.feasible), kernel=kernel)
            compile_span.note(
                kernels=len(app.exploration),
                sensitive=len(sensitive_kernels),
            )
        metrics.counter(
            "compiler.pipelines_compiled", "pipelines compiled",
        ).inc()
        return app

    # ------------------------------------------------------------------

    def _build_artifact(
        self, module: Module, variant, digest: str,
        sources: Dict[Module, str],
    ) -> Artifact:
        """Package the deployable artifact of one priced variant.

        ``sources`` holds the SYCL text per prepared module, for the
        variants of one kernel: the text does not depend on the thread
        count, so CPU variants that share a pass pipeline share it.
        """
        if variant.knobs.target == "cpu":
            # Muted observation: preparation is memoized, so whether
            # the pass pipeline actually runs here depends on cache
            # warmth; letting it trace would make otherwise-identical
            # compiles produce different traces. The packaging span
            # above is the deterministic record of this work.
            with observe(Observation()):
                prepared = prepare_variant_module(
                    module, variant.kernel, variant.knobs, digest
                )
            if prepared not in sources:
                sources[prepared] = generate_sycl(
                    prepared, variant.kernel)
            kind, payload = "binary", SoftwareBinary(
                name=variant.name,
                arch="ppc64le",
                source_text=sources[prepared],
                threads=variant.knobs.threads,
            )
        elif variant.knobs.target == "fpga":
            # The image of the design the point was priced from:
            # nothing is prepared or synthesized again, cold or warm.
            kind, payload = "bitstream", variant.cost.bitstream
        else:
            raise BackendError(
                f"no artifact path for target {variant.knobs.target!r}"
            )
        return Artifact(
            variant_id=variant.variant_id, kind=kind, payload=payload,
        )


def _mark_sensitive_args(module: Module) -> Set[str]:
    """Mark kernels consuming sensitive data; returns their names.

    A task argument is sensitive when the pipeline's taint label map
    (:func:`~repro.core.analysis.taint.pipeline_labels`) labels it;
    its index joins the kernel's ``everest.sensitive_args``.
    """
    sensitive_kernels: Set[str] = set()
    for pipeline_op in module.body.operations:
        if pipeline_op.name != "workflow.pipeline":
            continue
        labels = pipeline_labels(pipeline_op)
        for op in pipeline_op.regions[0].blocks[0].operations:
            if op.name != "workflow.task":
                continue
            tainted = [
                index for index, operand in enumerate(op.operands)
                if id(operand) in labels
            ]
            if not tainted:
                continue
            kernel = op.attr("kernel")
            function = module.find_function(kernel)
            if function is not None:
                existing = set(function.op.attr(
                    "everest.sensitive_args", []))
                function.op.set_attr(
                    "everest.sensitive_args",
                    sorted(existing.union(tainted)),
                )
            sensitive_kernels.add(kernel)
    return sensitive_kernels
