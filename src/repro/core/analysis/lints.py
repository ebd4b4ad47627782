"""Generic IR lints: dead values, unreachable blocks, unused functions.

These are warnings, not errors — the module is still executable — but
they catch the classic symptoms of a buggy rewrite (a fused loop whose
original ops were left behind, a kernel nobody calls after a rename)
before any time is spent exploring variants for them.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.core.analysis.dataflow import Liveness
from repro.core.ir.dialects import op_is_pure
from repro.core.ir.module import Function, Module
from repro.diagnostics import Diagnostics


def check_dead_values(
    function: Function,
    diagnostics: Optional[Diagnostics] = None,
) -> Diagnostics:
    """LINT001: pure ops whose results never feed an effect."""
    diagnostics = diagnostics if diagnostics is not None else Diagnostics()
    if function.is_declaration:
        return diagnostics
    liveness = Liveness()
    state = liveness.run(function)
    for op in function.walk():
        if not op.results or not op_is_pure(op):
            continue
        if any(state.get(result) for result in op.results):
            continue
        diagnostics.warning(
            "LINT001",
            f"result of {op.name} is never used "
            f"(%{op.results[0].name})",
            anchor=f"{function.name}/{op.name}",
            analysis="lint",
        )
    return diagnostics


def check_unreachable_blocks(
    function: Function,
    diagnostics: Optional[Diagnostics] = None,
) -> Diagnostics:
    """LINT002: non-entry blocks (the IR has no branch ops)."""
    diagnostics = diagnostics if diagnostics is not None else Diagnostics()
    for op in [function.op, *function.walk()]:
        for region in op.regions:
            for index, block in enumerate(region.blocks):
                if index == 0:
                    continue
                diagnostics.warning(
                    "LINT002",
                    f"block ^bb{index} of {op.name} is unreachable "
                    "(no control flow targets it)",
                    anchor=f"{function.name}/{op.name}",
                    analysis="lint",
                )
    return diagnostics


def _referenced_symbols(module: Module) -> Set[str]:
    """Function names referenced by tasks or calls."""
    referenced: Set[str] = set()
    for op in module.walk():
        if op.name in ("workflow.task", "kernel.call"):
            kernel = op.attr("kernel") or op.attr("callee")
            if isinstance(kernel, str):
                referenced.add(kernel)
    return referenced


def check_unused_functions(
    module: Module,
    diagnostics: Optional[Diagnostics] = None,
) -> Diagnostics:
    """LINT003: functions nothing references (when anything does).

    Modules without any workflow/call structure are treated as kernel
    libraries where every function is a public entry point.
    """
    diagnostics = diagnostics if diagnostics is not None else Diagnostics()
    referenced = _referenced_symbols(module)
    if not referenced:
        return diagnostics
    for function in module.functions():
        if function.name not in referenced:
            diagnostics.warning(
                "LINT003",
                f"function {function.name!r} is never referenced by "
                "any task, call or accelerator marker",
                anchor=function.name,
                analysis="lint",
            )
    return diagnostics


def check_module_lints(
    module: Module,
    diagnostics: Optional[Diagnostics] = None,
) -> Diagnostics:
    """All lints over a module."""
    diagnostics = diagnostics if diagnostics is not None else Diagnostics()
    for function in module.functions():
        check_dead_values(function, diagnostics)
        check_unreachable_blocks(function, diagnostics)
    check_unused_functions(module, diagnostics)
    return diagnostics
