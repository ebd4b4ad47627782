"""Data layout selection: array-of-structures vs structure-of-arrays.

The paper's example of a software variant axis (§III-B): "a
software-only implementation could explore layouts of particles as
array-of-structures or structure-of-arrays". The pass rewrites the
layout tag of memref-typed function arguments and local allocations;
the cost model and HLS memory mapper interpret the tag (SoA enables
per-field banking and unit-stride streaming, AoS favors whole-record
access).
"""

from __future__ import annotations

from repro.core.ir.module import Module
from repro.core.ir.ops import Value
from repro.core.ir.passes.pass_manager import Pass
from repro.core.ir.types import FunctionType, MemRefType
from repro.errors import PassError

_RECORD_LAYOUTS = ("aos", "soa")


class DataLayoutPass(Pass):
    """Set the layout of record-structured buffers to AoS or SoA.

    Only buffers whose current layout is already a record layout (aos/
    soa) — i.e. buffers the frontend marked as records — are rewritten;
    plain row-major arrays are untouched.
    """

    name = "data-layout"

    def __init__(self, layout: str = "soa"):
        if layout not in _RECORD_LAYOUTS:
            raise PassError(
                f"layout must be one of {_RECORD_LAYOUTS}, got {layout!r}"
            )
        self.layout = layout

    def run(self, module: Module) -> bool:
        changed = False
        for func in module.functions():
            for argument in func.arguments:
                changed |= self._retag(argument)
            new_inputs = tuple(arg.type for arg in func.arguments)
            function_type = func.type
            if new_inputs != function_type.inputs:
                func.op.set_attr(
                    "function_type",
                    FunctionType(new_inputs, function_type.results),
                )
            for op in func.walk():
                if op.name == "kernel.alloc":
                    changed |= self._retag(op.results[0])
        return changed

    def _retag(self, value: Value) -> bool:
        value_type = value.type
        if not isinstance(value_type, MemRefType):
            return False
        if value_type.layout not in _RECORD_LAYOUTS:
            return False
        if value_type.layout == self.layout:
            return False
        value.type = value_type.with_layout(self.layout)
        return True
