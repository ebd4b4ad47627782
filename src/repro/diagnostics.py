"""Unified diagnostics for every layer of the SDK.

Every static check — the structural verifier, the DSL type checker and
the analyses under :mod:`repro.core.analysis` — and every coded
runtime failure (simulator, journal, DSE) reports through the same
:class:`Diagnostic` record: a stable error code, a severity, a human
message and an anchor naming the op / function / task the finding is
about. A :class:`Diagnostics` collection renders to pretty text or
JSON and decides process exit codes, so the CLI, the pass manager and
CI all consume one format.

Error codes are registered centrally (:data:`CODES`) so they stay
stable across releases and can be suppressed individually.

This module is a leaf beside :mod:`repro.errors`: it imports nothing
from ``repro``, so any layer can report without loading another.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


class Severity(Enum):
    """How serious a finding is."""

    ERROR = "error"  # the artifact must not proceed to DSE/HLS
    WARNING = "warning"  # suspicious but not blocking
    NOTE = "note"  # informational (e.g. dynamically-checked flow)

    @property
    def rank(self) -> int:
        """Orderable weight: errors first."""
        return {"error": 0, "warning": 1, "note": 2}[self.value]


#: Registry of stable diagnostic codes -> one-line description.
CODES: Dict[str, str] = {
    # structural IR verification
    "IR001": "operation is not registered with any dialect",
    "IR002": "operation violates its structural constraints",
    "IR003": "operand is not visible at its use",
    "IR004": "terminator is not the last operation of its block",
    "IR005": "block does not end with the required terminator",
    "IR006": "use-def chains are inconsistent",
    "IR007": "SSA value defined more than once",
    # DSL front end
    "DSL001": "kernel DSL source failed to parse",
    "TY001": "type error in a kernel body",
    "TY002": "duplicate or malformed declaration",
    # static taint / information-flow
    "SEC001": "tainted value reaches kernel return without declassification",
    "SEC002": "tainted value stored to unprotected caller-visible memory",
    "SEC003": "tainted egress is only guarded by a dynamic check",
    "SEC004": "tainted pipeline value reaches a sink declared public",
    "SEC005": "sensitive arguments await DIFT instrumentation",
    # memory partition legality
    "MEM001": "memory access is out of bounds",
    "MEM002": "partition factor cannot serve the access pattern (bank conflict)",
    "MEM003": "partition directive is malformed or wasteful",
    "MEM004": "inferred value range proves the access out of bounds",
    # generic lints
    "LINT001": "result of a pure operation is never used",
    "LINT002": "block is unreachable",
    "LINT003": "function is never referenced",
    "LINT004": "branch or loop is statically dead (never taken)",
    # workflow DAG
    "WF001": "workflow contains a dependency cycle",
    "WF002": "task consumes an object nothing produces",
    "WF003": "task requests more resources than any worker provides",
    "WF004": "data object is produced by more than one task",
    "WF005": "duplicate task name",
    "WF006": "task is unreachable (depends on an unproducible object)",
    "WF007": "workflow run journal is corrupt",
    "WF008": "workflow journal/snapshot version skew",
    "WF009": "resume state does not match the run recipe",
    "WF010": "producer and consumer disagree on a data object's shape",
    "WF011": "producer and consumer disagree on a data object's dtype",
    # pass pipeline
    "PM001": "module became invalid after a pass",
    # design-space exploration
    "DSE001": "no feasible variants for the kernel",
    # static performance analysis
    "PERF001": "unroll factor provably exceeds memory port capacity",
    "PERF002": "loop-invariant load can be hoisted to a register",
    "PERF003": "non-affine access defeats burst inference",
    "PERF004": "kernel is memory-bound at default knobs (roofline)",
    "PERF005": "pipeline II target is provably unattainable",
    # static concurrency: data races
    "RACE001": "unordered tasks both write the same data object",
    "RACE002": "task reads an object an unordered task writes",
    "RACE003": "torn read: task reads several objects one unordered "
               "task writes",
    "RACE004": "order-sensitive task consumes unordered equal-priority "
               "producers",
    # static concurrency: deadlocks
    "DL001": "resource acquisition order forms a cycle between "
             "concurrent tasks",
    "DL002": "resource request can never be granted",
    "DL003": "concurrent incremental requests can exhaust a resource "
             "with every holder still waiting",
    # platform simulator runtime diagnostics
    "SIM001": "resource released without a matching request",
    "SIM002": "simulation drained with an unfinished process (deadlock)",
    # dynamic happens-before sanitizer
    "SAN001": "two concurrent writes to the same object observed",
    "SAN002": "concurrent read and write of the same object observed",
    "SAN003": "resource acquire/release imbalance observed",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one analysis."""

    code: str
    severity: Severity
    message: str
    #: what the finding anchors to: an op name, function, task, file…
    anchor: str = ""
    #: originating analysis or tool (verifier, taint, dag-lint, …)
    analysis: str = ""
    #: optional source location (file, line) when known
    loc: Optional[Tuple[str, int]] = None

    def render(self) -> str:
        """One-line human rendering."""
        where = f" @ {self.anchor}" if self.anchor else ""
        if self.loc is not None:
            where += f" ({self.loc[0]}:{self.loc[1]})"
        return (
            f"{self.severity.value}[{self.code}]{where}: {self.message}"
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready mapping."""
        payload: Dict[str, object] = {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
        }
        if self.anchor:
            payload["anchor"] = self.anchor
        if self.analysis:
            payload["analysis"] = self.analysis
        if self.loc is not None:
            payload["file"], payload["line"] = self.loc
        return payload

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "Diagnostic":
        """Inverse of :meth:`to_dict` (used by the analysis cache)."""
        loc: Optional[Tuple[str, int]] = None
        if "file" in payload:
            loc = (str(payload["file"]), int(payload["line"]))  # type: ignore[arg-type]
        return Diagnostic(
            code=str(payload["code"]),
            severity=Severity(str(payload["severity"])),
            message=str(payload["message"]),
            anchor=str(payload.get("anchor", "")),
            analysis=str(payload.get("analysis", "")),
            loc=loc,
        )


@dataclass
class Diagnostics:
    """An ordered collection of findings with rendering helpers."""

    items: List[Diagnostic] = field(default_factory=list)

    def emit(
        self,
        code: str,
        message: str,
        severity: Severity = Severity.ERROR,
        anchor: str = "",
        analysis: str = "",
        loc: Optional[Tuple[str, int]] = None,
    ) -> Diagnostic:
        """Record one finding and return it."""
        if code not in CODES:
            raise ValueError(f"unregistered diagnostic code {code!r}")
        diagnostic = Diagnostic(
            code=code, severity=severity, message=message,
            anchor=anchor, analysis=analysis, loc=loc,
        )
        self.items.append(diagnostic)
        return diagnostic

    def error(self, code: str, message: str, **kwargs) -> Diagnostic:
        """Shorthand for an ERROR finding."""
        return self.emit(code, message, Severity.ERROR, **kwargs)

    def warning(self, code: str, message: str, **kwargs) -> Diagnostic:
        """Shorthand for a WARNING finding."""
        return self.emit(code, message, Severity.WARNING, **kwargs)

    def note(self, code: str, message: str, **kwargs) -> Diagnostic:
        """Shorthand for a NOTE finding."""
        return self.emit(code, message, Severity.NOTE, **kwargs)

    @staticmethod
    def from_dicts(payloads: Iterable[Dict[str, object]]) -> "Diagnostics":
        """Rebuild a collection from :meth:`Diagnostic.to_dict` output."""
        return Diagnostics([Diagnostic.from_dict(p) for p in payloads])

    # ------------------------------------------------------------------

    def extend(self, other: "Diagnostics") -> "Diagnostics":
        """Absorb another collection; returns self."""
        self.items.extend(other.items)
        return self

    def suppress(self, codes: Iterable[str]) -> "Diagnostics":
        """New collection without findings whose code is suppressed."""
        dropped = set(codes)
        return Diagnostics(
            [item for item in self.items if item.code not in dropped]
        )

    def by_severity(self, severity: Severity) -> List[Diagnostic]:
        """Findings of one severity, in emission order."""
        return [item for item in self.items if item.severity is severity]

    @property
    def errors(self) -> List[Diagnostic]:
        """All ERROR findings."""
        return self.by_severity(Severity.ERROR)

    @property
    def has_errors(self) -> bool:
        """True when at least one ERROR was recorded."""
        return any(
            item.severity is Severity.ERROR for item in self.items
        )

    def sorted(self) -> List[Diagnostic]:
        """Findings ordered by severity, then code, then anchor."""
        return sorted(
            self.items,
            key=lambda d: (d.severity.rank, d.code, d.anchor, d.message),
        )

    # ------------------------------------------------------------------

    def render_text(self, header: str = "") -> str:
        """Multi-line human-readable report."""
        lines: List[str] = []
        if header:
            lines.append(header)
        for item in self.sorted():
            lines.append("  " + item.render() if header else item.render())
        counts = self.summary()
        tally = ", ".join(
            f"{count} {name}{'s' if count != 1 else ''}"
            for name, count in counts.items() if count
        ) or "clean"
        lines.append(("  " if header else "") + f"-- {tally}")
        return "\n".join(lines)

    def to_json(self, indent: Optional[int] = None) -> str:
        """Stable JSON rendering (sorted findings + counts)."""
        payload = {
            "diagnostics": [item.to_dict() for item in self.sorted()],
            "counts": self.summary(),
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    def summary(self) -> Dict[str, int]:
        """Counts per severity name."""
        return {
            "error": len(self.by_severity(Severity.ERROR)),
            "warning": len(self.by_severity(Severity.WARNING)),
            "note": len(self.by_severity(Severity.NOTE)),
        }

    def first_error_message(self) -> str:
        """Rendered first error ('' when error-free)."""
        for item in self.sorted():
            if item.severity is Severity.ERROR:
                return item.render()
        return ""

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __bool__(self) -> bool:
        return bool(self.items)


def raise_if_errors(diagnostics: Diagnostics, exc_type: type) -> None:
    """Raise ``exc_type`` carrying the first error, if any.

    The raised exception gets a ``diagnostics`` attribute holding the
    full collection so callers can render everything.
    """
    if not diagnostics.has_errors:
        return
    exc = exc_type(diagnostics.first_error_message())
    exc.diagnostics = diagnostics
    raise exc


def diagnosed_error(exc_type: type, code: str, message: str,
                    anchor: str, analysis: str) -> Exception:
    """An ``exc_type(message)`` carrying that one finding.

    For failures found at run time rather than by a check: the caller
    raises the returned exception, whose ``diagnostics`` attribute
    gives tooling the stable code and anchor (same contract as
    :func:`raise_if_errors`).
    """
    diagnostics = Diagnostics()
    diagnostics.error(code, message, anchor=anchor, analysis=analysis)
    exc = exc_type(message)
    exc.diagnostics = diagnostics
    return exc
