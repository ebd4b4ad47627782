"""Pass driver: ordered pipelines with optional post-pass checking."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List

from repro.core.ir.module import Module
from repro.core.ir.verifier import verify_diagnostics
from repro.diagnostics import Diagnostics
from repro.errors import PassError
from repro.obs import current_metrics, current_tracer

#: Tracer category for per-pass compile spans.
PASS_CATEGORY = "compiler.pass"


class Pass:
    """Base class: subclasses implement :meth:`run` returning 'changed'."""

    #: Human-readable pass name; defaults to the class name.
    name = ""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if not cls.name:
            cls.name = cls.__name__

    def run(self, module: Module) -> bool:
        """Transform ``module`` in place; return True if changed."""
        raise NotImplementedError


@dataclass
class PassManager:
    """Runs a pipeline of passes in order.

    With ``verify_each`` set (the default), the module is structurally
    re-verified after every pass so a broken rewrite is caught at its
    source; the raised :class:`~repro.errors.PassError` names the
    offending pass and carries the full diagnostics under its
    ``diagnostics`` attribute (code PM001).
    """

    verify_each: bool = True
    passes: List[Pass] = field(default_factory=list)
    #: Findings accumulated across the run (post-pass checks).
    diagnostics: Diagnostics = field(default_factory=Diagnostics)

    def add(self, pass_: Pass) -> "PassManager":
        """Append a pass; returns self for chaining."""
        self.passes.append(pass_)
        return self

    def run(self, module: Module) -> bool:
        """Run all passes; returns True if any changed the module."""
        tracer = current_tracer()
        metrics = current_metrics()
        pass_seconds = metrics.histogram(
            "compiler.pass_seconds", "wall time per compiler pass",
        )
        any_changed = False
        for pass_ in self.passes:
            span = tracer.span(
                pass_.name, category=PASS_CATEGORY,
                module=module.name,
            )
            start = time.perf_counter()
            with span:
                try:
                    changed = pass_.run(module)
                except PassError:
                    raise
                except Exception as exc:
                    raise PassError(
                        f"pass {pass_.name} failed: {exc}"
                    ) from exc
                elapsed = time.perf_counter() - start
                span.note(changed=bool(changed))
            pass_seconds.observe(elapsed, name=pass_.name)
            metrics.counter(
                "compiler.passes_run", "compiler pass invocations",
            ).inc(name=pass_.name)
            any_changed = any_changed or bool(changed)
            if self.verify_each:
                self._check_after(pass_, module)
        return any_changed

    def _check_after(self, pass_: Pass, module: Module) -> None:
        """Post-pass verification; raises PassError naming the pass."""
        found = verify_diagnostics(module)
        self.diagnostics.extend(found)
        if not found.has_errors:
            return
        first = found.first_error_message()
        self.diagnostics.error(
            "PM001",
            f"module invalid after pass {pass_.name}: invalid IR: {first}",
            anchor=pass_.name,
            analysis="pass-manager",
        )
        error = PassError(
            f"module invalid after pass {pass_.name}: {first}"
        )
        error.diagnostics = self.diagnostics
        raise error
