"""Exception hierarchy for the EVEREST SDK reproduction.

Every subsystem raises a subclass of :class:`EverestError` so that callers
can catch SDK-level failures without masking programming errors.
"""

from __future__ import annotations


class EverestError(Exception):
    """Base class for all errors raised by the SDK."""


class SpecificationError(EverestError):
    """An application specification (DSL, workflow, annotation) is invalid."""


class ParseError(SpecificationError):
    """A DSL source string could not be parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class TypeCheckError(SpecificationError):
    """A DSL program failed type checking."""


class IRError(EverestError):
    """The intermediate representation is malformed."""


class VerificationError(IRError):
    """An IR module failed structural verification."""


class PassError(EverestError):
    """A compiler pass could not be applied."""


class AnalysisError(EverestError):
    """Static analysis reported blocking diagnostics.

    When raised by the analysis driver the ``diagnostics`` attribute
    holds the full :class:`~repro.diagnostics.Diagnostics`
    collection that triggered it.
    """


class HLSError(EverestError):
    """High-level synthesis failed."""


class SchedulingError(HLSError):
    """The HLS scheduler could not produce a legal schedule."""


class DSEError(EverestError):
    """Design-space exploration failed.

    When raised for an empty feasible set (DSE001) the ``diagnostics``
    attribute holds the
    :class:`~repro.diagnostics.Diagnostics` collection
    describing the finding.
    """


class BackendError(EverestError):
    """Code generation or packaging failed."""


class PlatformError(EverestError):
    """The simulated platform was misconfigured or misused."""


class CapacityError(PlatformError):
    """A resource request exceeded the capacity of a device."""


class ChaosError(EverestError):
    """A fault-injection schedule is invalid or exhausted all retries."""


class RuntimeSystemError(EverestError):
    """The EVEREST runtime (autotuner, virtualization, executor) failed."""


class VirtualizationError(RuntimeSystemError):
    """Hypervisor or VM management failure."""


class SecurityError(RuntimeSystemError):
    """A data-protection policy was violated or an attack was detected."""


class WorkflowError(EverestError):
    """The distributed workflow engine rejected a graph or execution."""


class JournalError(WorkflowError):
    """A workflow run journal or snapshot is unusable.

    Raised for mid-file corruption (WF007), format version skew
    (WF008) and resume/recipe mismatches (WF009). When raised with a
    stable code the ``code`` attribute carries it and ``diagnostics``
    holds the matching collection.
    """

    code: str = ""


class JobStoreError(WorkflowError):
    """The multi-tenant job store rejected a request.

    Raised for illegal state-machine transitions (JOB002), unknown
    jobs (JOB001), stale lease completions (JOB003) and schema
    version skew (JOB004). The ``code`` attribute carries the stable
    code.
    """

    code: str = ""
