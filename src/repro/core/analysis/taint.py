"""Static taint / information-flow checking (compile-time IFT).

The dynamic half of EVEREST's data protection (TaintHLS shadow logic,
the runtime flow tracker) catches violations while the design runs;
this module catches them *before* anything is synthesized, in the
spirit of the SDK's "detect security violations at compile time"
promise (paper §III-A).

Taint sources
    ``secure.taint`` results, arguments listed in a function's
    ``everest.sensitive_args`` attribute, and ``workflow.source`` ops
    whose ``sensitivity`` is not public.

Declassification
    ``secure.declassify`` and ``secure.encrypt`` clear labels; a
    ``secure.check`` guarding a value downgrades the finding to a
    note (the violation would trap dynamically).

Checks
    * SEC001 — a tainted value reaches ``func.return`` with no
      declassification and no dynamic guard;
    * SEC002 — a tainted value is stored into a caller-visible memref
      (a function argument) of a function without crypto/DIFT
      protection;
    * SEC003 — tainted egress exists but is guarded by a dynamic
      ``secure.check`` (note);
    * SEC004 — at the workflow level, a tainted pipeline value reaches
      a sink explicitly declared public;
    * SEC005 — a function carries ``everest.sensitive_args`` but has
      not been instrumented yet (warning: the compiler will force
      DIFT variants).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set

from repro.core.analysis.dataflow import TaintPropagation
from repro.core.ir.module import Function, Module
from repro.core.ir.ops import Operation, Value
from repro.diagnostics import Diagnostics, Severity

_PUBLIC = ("public", None, "")


def _function_seed(function: Function) -> Dict[int, FrozenSet[str]]:
    """Initial labels for a function: its sensitive arguments."""
    seed: Dict[int, FrozenSet[str]] = {}
    sensitive: List[int] = function.op.attr("everest.sensitive_args", [])
    arguments = function.arguments
    for index in sensitive:
        if 0 <= index < len(arguments):
            seed[id(arguments[index])] = frozenset({f"arg{index}"})
    return seed


def _is_protected(function: Function) -> bool:
    """True when the function already carries dynamic protection."""
    return bool(function.op.attr("dift")) or bool(
        function.op.attr("cipher")
    )


def _guarded_values(function: Function) -> Set[int]:
    """Values consumed by a secure.check (dynamically guarded)."""
    guarded: Set[int] = set()
    for op in function.walk():
        if op.name == "secure.check":
            guarded.update(id(operand) for operand in op.operands)
    return guarded


def check_function_taint(
    function: Function,
    diagnostics: Optional[Diagnostics] = None,
) -> Diagnostics:
    """Run static IFT over one function; returns the diagnostics."""
    diagnostics = diagnostics if diagnostics is not None else Diagnostics()
    if function.is_declaration:
        return diagnostics

    analysis = TaintPropagation(seed=_function_seed(function))
    state = analysis.run(function)
    facts = state.facts()
    has_explicit_taint = any(
        op.name == "secure.taint" for op in function.walk()
    )
    instrumented = has_explicit_taint or _is_protected(function)
    sensitive = function.op.attr("everest.sensitive_args", [])
    if sensitive and not instrumented:
        diagnostics.warning(
            "SEC005",
            f"function {function.name!r} marks args {sensitive} "
            "sensitive but carries no taint instrumentation yet",
            anchor=function.name,
            analysis="taint",
        )

    guarded = _guarded_values(function)
    protected = _is_protected(function)

    def labels_of(value: Value) -> FrozenSet[str]:
        return facts.get(value, frozenset())

    if not has_explicit_taint and not protected:
        # Only implicit arg-sensitivity: the compiler has not run the
        # security pass yet, so SEC005 above is the whole story —
        # hard errors would flag every pipeline mid-compilation.
        return diagnostics

    for op in function.walk():
        if op.name == "func.return":
            for operand in op.operands:
                labels = labels_of(operand)
                if not labels:
                    continue
                rendered = ", ".join(sorted(labels))
                if id(operand) in guarded or protected:
                    diagnostics.note(
                        "SEC003",
                        f"return of value tainted by [{rendered}] is "
                        "guarded dynamically, not declassified",
                        anchor=f"{function.name}/func.return",
                        analysis="taint",
                    )
                else:
                    diagnostics.error(
                        "SEC001",
                        f"tainted value (labels [{rendered}]) reaches "
                        f"the return of {function.name!r} without "
                        "secure.declassify or secure.encrypt",
                        anchor=f"{function.name}/func.return",
                        analysis="taint",
                    )
        elif op.name == "kernel.store" and len(op.operands) >= 2:
            stored, target = op.operands[0], op.operands[1]
            labels = labels_of(stored)
            if not labels or not target.is_block_argument:
                continue  # spills to local scratch are fine
            if protected or id(stored) in guarded:
                continue
            rendered = ", ".join(sorted(labels))
            diagnostics.error(
                "SEC002",
                f"value tainted by [{rendered}] is stored to "
                f"caller-visible memory %{target.name} of "
                f"{function.name!r} without protection",
                anchor=f"{function.name}/kernel.store",
                analysis="taint",
            )
    return diagnostics


def _incoming(
    op: Operation, labels: Dict[int, FrozenSet[str]],
) -> FrozenSet[str]:
    incoming: FrozenSet[str] = frozenset()
    for operand in op.operands:
        incoming |= labels.get(id(operand), frozenset())
    return incoming


def pipeline_labels(pipeline_op: Operation) -> Dict[int, FrozenSet[str]]:
    """Taint labels of a workflow.pipeline op's values, keyed by ``id``.

    A source whose ``sensitivity`` is not public labels its value
    ``"<source>:<sensitivity>"``; a task's results carry the union of
    its operands' labels. Untainted values are absent. The SEC004 /
    SEC003 sink check and the compiler's ``everest.sensitive_args``
    marking both read this map.
    """
    labels: Dict[int, FrozenSet[str]] = {}
    for op in pipeline_op.regions[0].blocks[0].operations:
        if op.name == "workflow.source":
            sensitivity = op.attr("sensitivity")
            if sensitivity not in _PUBLIC:
                labels[id(op.results[0])] = frozenset(
                    {f"{op.attr('sym_name')}:{sensitivity}"}
                )
        elif op.name == "workflow.task":
            incoming = _incoming(op, labels)
            if incoming:
                for result in op.results:
                    labels[id(result)] = incoming
    return labels


def check_pipeline_taint(
    module: Module,
    pipeline_op: Operation,
    diagnostics: Optional[Diagnostics] = None,
) -> Diagnostics:
    """Report tainted pipeline values reaching sinks (SEC004/SEC003)."""
    diagnostics = diagnostics if diagnostics is not None else Diagnostics()
    labels = pipeline_labels(pipeline_op)
    for op in pipeline_op.regions[0].blocks[0].operations:
        if op.name == "workflow.sink":
            incoming = _incoming(op, labels)
            if not incoming:
                continue
            rendered = ", ".join(sorted(incoming))
            declared = op.attr("sensitivity")
            sink = op.attr("sym_name", "<sink>")
            if declared == "public":
                diagnostics.error(
                    "SEC004",
                    f"sink {sink!r} is declared public but receives "
                    f"data tainted by [{rendered}]",
                    anchor=f"{pipeline_op.attr('sym_name')}/{sink}",
                    analysis="taint",
                )
            else:
                diagnostics.note(
                    "SEC003",
                    f"sink {sink!r} receives data tainted by "
                    f"[{rendered}]; runtime flow tracking will gate "
                    "its egress",
                    anchor=f"{pipeline_op.attr('sym_name')}/{sink}",
                    analysis="taint",
                )
    return diagnostics


def check_module_taint(
    module: Module,
    diagnostics: Optional[Diagnostics] = None,
) -> Diagnostics:
    """Static IFT over every function and pipeline of a module."""
    diagnostics = diagnostics if diagnostics is not None else Diagnostics()
    for function in module.functions():
        check_function_taint(function, diagnostics)
    for op in module.body.operations:
        if op.name == "workflow.pipeline":
            check_pipeline_taint(module, op, diagnostics)
    return diagnostics


__all__ = [
    "check_function_taint",
    "check_pipeline_taint",
    "check_module_taint",
    "pipeline_labels",
    "Severity",
]
