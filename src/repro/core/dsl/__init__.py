"""Embedded DSLs for application specification (paper §III-A).

* :mod:`repro.core.dsl.kernel_dsl` — a textual tensor-expression
  language for performance-critical kernels (in the spirit of CFDlang
  [12] and TeIL [15]); compiled to the tensor dialect.
* :mod:`repro.core.dsl.annotations` — data characteristics,
  non-functional requirements and security annotations attached to
  kernels and pipeline edges.
* :mod:`repro.core.dsl.workflow` — the Python workflow-pipeline builder
  (HyperLoom-style) that assembles kernels, sources and sinks into the
  application graph handed to the compiler.
"""

from repro.core.dsl.annotations import (
    DataAnnotation,
    Requirement,
    SecurityAnnotation,
)
from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.dsl.workflow import Pipeline, Sink, Source, Task

__all__ = [
    "DataAnnotation",
    "Requirement",
    "SecurityAnnotation",
    "compile_kernel",
    "Pipeline",
    "Task",
    "Source",
    "Sink",
]
