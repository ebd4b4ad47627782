"""Harness spans: per-layer attribution taken from outside.

The program under test is not edited. For the traced pass the harness
wraps the public functions that sit on layer boundaries — it replaces
each one, wherever a ``repro`` module holds a reference to it, with a
closure that records a span (name, start, end, parent, op id) around
the call and then calls the original. Spans stay in memory until the
run ends. A layer's *self* time is its span's duration minus the part
its child spans cover.

A target that no longer exists (a later refactor moved or removed it)
is skipped, so its metrics read 0 instead of breaking the benchmark
that has to judge that refactor.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Public functions wrapped for the traced pass:
#: ``(module, qualified name, span name)``. The span name is the stem
#: of the per-layer metric it feeds (``<span>_s``, ``<span>_calls``).
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.dsl.kernel_dsl", "compile_kernel",
     "core.dsl.compile_kernel"),
    ("repro.core.dsl.workflow", "Pipeline.to_ir", "core.dsl.to_ir"),
    ("repro.core.frontend", "import_model",
     "core.frontend.import_model"),
    ("repro.core.ir.digest", "module_digest", "core.ir.digest"),
    ("repro.core.ir.module", "Module.clone", "core.ir.clone"),
    ("repro.core.dse.cost_model", "prepare_variant_module",
     "core.ir.passes.prepare"),
    ("repro.core.analysis", "analyze_module_cached",
     "core.analysis.gate"),
    ("repro.core.analysis.concurrency", "check_pipeline_concurrency",
     "core.analysis.gate"),
    ("repro.core.dsl.workflow", "lint_pipeline_contracts",
     "core.analysis.gate"),
    ("repro.core.dse.explorer", "Explorer.run", "core.dse.explore"),
    ("repro.core.dse.cache", "CostCache.get",
     "core.dse.cost_cache_get"),
    ("repro.core.dse.cache", "CostCache.put",
     "core.dse.cost_cache_put"),
    ("repro.core.dse.pareto", "ParetoFront.add",
     "core.dse.pareto_insert"),
    ("repro.core.hls.bambu", "synthesize", "core.hls.synthesize"),
    ("repro.core.hls.cdfg", "build_cdfg", "core.hls.cdfg"),
    ("repro.core.hls.scheduling", "schedule_loop",
     "core.hls.schedule"),
    ("repro.core.hls.memory", "plan_memories",
     "core.hls.memory_plan"),
    ("repro.core.backend.sycl_gen", "generate_sycl",
     "core.backend.sycl_gen"),
    ("repro.core.hls.bambu", "AcceleratorDesign.bitstream",
     "core.backend.bitstream"),
    ("repro.core.backend.packaging", "VariantPackage.add_variant",
     "core.backend.package"),
    ("repro.core.backend.packaging", "VariantPackage.manifest",
     "core.backend.package"),
    ("repro.core.compiler", "EverestCompiler.compile",
     "core.compiler.compile"),
    ("repro.runtime.orchestrator", "Orchestrator.deploy",
     "runtime.orchestrator.deploy"),
    ("repro.runtime.scheduler", "TierPlacer.place",
     "runtime.scheduler.place"),
    ("repro.runtime.executor", "RuntimeExecutor.run",
     "runtime.executor.run"),
    ("repro.runtime.autotuner.manager", "ApplicationManager.select",
     "runtime.autotuner.select"),
    ("repro.workflow.recovery", "ResilientServer.run",
     "workflow.recovery.run"),
    ("repro.workflow.server", "WorkflowServer.run",
     "workflow.server.run"),
    ("repro.workflow.journal", "RunJournal.on_event",
     "workflow.journal.append"),
    ("repro.workflow.journal", "RunJournal.append",
     "workflow.journal.append"),
    ("repro.workflow.journal", "RunJournal.snapshot",
     "workflow.journal.snapshot"),
    ("repro.workflow.journal", "RunJournal.checkpoint",
     "workflow.journal.snapshot"),
    ("repro.workflow.journal", "RunJournal.finish",
     "workflow.journal.append"),
    ("repro.workflow.journal", "RunJournal.close",
     "workflow.journal.append"),
    ("repro.workflow.journal", "replay_journal",
     "workflow.journal.replay"),
    ("repro.workflow.runstore", "RunStore.create_run",
     "workflow.journal.open"),
    ("repro.workflow.runstore", "RunStore.prepare_resume",
     "workflow.journal.open"),
    ("repro.workflow.jobstore", "JobStore.submit",
     "workflow.jobstore.submit"),
    ("repro.workflow.jobstore", "JobStore.lease",
     "workflow.jobstore.lease"),
    ("repro.workflow.jobstore", "JobStore.complete",
     "workflow.jobstore.complete"),
    ("repro.workflow.jobstore", "JobStore.heartbeat",
     "workflow.jobstore.heartbeat"),
    ("repro.workflow.jobstore", "JobStore.expire_leases",
     "workflow.jobstore.expire"),
    ("repro.workflow.jobstore", "JobStore.counts",
     "workflow.jobstore.counts"),
    ("repro.workflow.jobstore", "JobStore.list_jobs",
     "workflow.jobstore.list"),
    ("repro.workflow.jobstore", "JobStore.cancel",
     "workflow.jobstore.cancel"),
    ("repro.workflow.jobstore", "JobStore.drained",
     "workflow.jobstore.counts"),
    ("repro.workflow.jobstore", "JobStore.bind_run",
     "workflow.jobstore.complete"),
    ("repro.workflow.launcher", "Launcher.run",
     "workflow.launcher.drain"),
    ("repro.workflow.launcher", "Launcher.execute_job",
     "workflow.launcher.execute"),
)

#: Packages whose modules may hold a ``from x import f`` reference to a
#: target: the program, and this harness (it calls some directly).
_PATCHED_PACKAGES = ("repro.", "benchmarks.e2e.")

#: The layers spans are folded into, longest prefix first.
LAYERS: Tuple[str, ...] = (
    "core.ir.passes", "core.dsl", "core.frontend", "core.ir",
    "core.analysis", "core.dse", "core.hls", "core.backend",
    "core.compiler", "runtime", "workflow.recovery",
    "workflow.server", "workflow.journal", "workflow.jobstore",
    "workflow.launcher", "bench",
)


def layer_of(span_name: str) -> str:
    """The layer a span name belongs to."""
    for layer in LAYERS:
        if span_name == layer or span_name.startswith(layer + "."):
            return layer
    return "bench"


class Span:
    """One recorded call."""

    __slots__ = ("name", "start", "end", "parent", "op", "note")

    def __init__(self, name: str, start: float, parent: int, op: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        #: Free slot a wrapper may fill (a job kind, a row count ...).
        self.note = None

    @property
    def duration(self) -> float:
        """Inclusive seconds."""
        return self.end - self.start


class SpanRecorder:
    """Collects spans in memory; one recorder per traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.op = -1

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record one span around the ``with`` body."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent, self.op)
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, function: Callable, name: str,
             note: Optional[Callable] = None) -> Callable:
        """A closure recording a span around every call of ``function``.

        ``note(args, kwargs, result)`` may return a value to keep on
        the span (evaluated after the call, outside the span).
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not stack:  # outside an op (its check, a probe): no span
                return function(*args, **kwargs)
            span = Span(name, 0.0, stack[-1], self.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    # -- folding -------------------------------------------------------

    def rescale(self, scale_by_op: Dict[int, float]) -> None:
        """Stretch every span by the host-speed factor of its op."""
        for span in self.spans:
            factor = scale_by_op.get(span.op, 1.0)
            span.start *= factor
            span.end *= factor

    def self_seconds(self) -> List[float]:
        """Self time of every span (duration minus direct children)."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.duration
        return own

    def ancestors_of(self, span: Span) -> Iterator[Span]:
        """The spans enclosing ``span``, innermost first."""
        parent = span.parent
        while parent >= 0:
            yield self.spans[parent]
            parent = self.spans[parent].parent

    def totals(self) -> Tuple[Dict[str, float], Dict[str, float],
                              Dict[str, int]]:
        """``(self seconds, inclusive seconds, calls)`` per span name."""
        own = self.self_seconds()
        self_by: Dict[str, float] = {}
        inclusive_by: Dict[str, float] = {}
        calls_by: Dict[str, int] = {}
        for span, seconds in zip(self.spans, own):
            self_by[span.name] = self_by.get(span.name, 0.0) + seconds
            calls_by[span.name] = calls_by.get(span.name, 0) + 1
            # a span nested in one of the same name (on_event ->
            # append) must not count its seconds twice
            if not any(a.name == span.name
                       for a in self.ancestors_of(span)):
                inclusive_by[span.name] = (
                    inclusive_by.get(span.name, 0.0) + span.duration
                )
        return self_by, inclusive_by, calls_by

    def layer_self_seconds(self) -> Dict[str, float]:
        """Self time per layer."""
        layers: Dict[str, float] = {}
        for span, seconds in zip(self.spans, self.self_seconds()):
            layer = layer_of(span.name)
            layers[layer] = layers.get(layer, 0.0) + seconds
        return layers


def _resolve(module_name: str, qualname: str):
    """``(owner, attribute, original)`` or None when it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(parts[-1]) if isinstance(
        owner, type) else getattr(owner, parts[-1], None)
    if not callable(original) or isinstance(
        original, (staticmethod, classmethod)
    ):
        return None
    return owner, parts[-1], original


@contextmanager
def instrument(
    recorder: SpanRecorder,
    notes: Optional[Dict[str, Callable]] = None,
) -> Iterator[None]:
    """Wrap every :data:`TARGETS` function for the ``with`` body.

    Module-level functions are replaced in every loaded module of the
    program (and of this harness) that holds a reference — ``from x
    import f`` copies one — so the wrapper is seen no matter how the
    caller imported it. ``notes`` maps a span name to a ``note``
    callback (see :meth:`SpanRecorder.wrap`).
    """
    notes = notes or {}
    patched: List[Tuple[object, str, object]] = []
    for module_name, qualname, span_name in TARGETS:
        resolved = _resolve(module_name, qualname)
        if resolved is None:
            continue
        owner, attribute, original = resolved
        wrapper = recorder.wrap(original, span_name,
                                notes.get(span_name))
        if isinstance(owner, type):
            setattr(owner, attribute, wrapper)
            patched.append((owner, attribute, original))
            continue
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith(_PATCHED_PACKAGES):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    patched.append((module, key, original))
    try:
        yield
    finally:
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)
