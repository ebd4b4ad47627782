"""Textual rendering of IR modules in a generic MLIR-like syntax.

Example output::

    builtin.module @pipeline {
      func.func @saxpy (%arg0: memref<1024xf32>, ...) -> () {
        kernel.for {lower = 0, upper = 1024, step = 1} {
        ^bb(%i: index):
          %0 = kernel.load(%arg0, %i) : f32
          ...
          kernel.yield
        }
        func.return
      }
    }

The printer assigns stable, human-readable names per function scope.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.ir.module import Module
from repro.core.ir.ops import Operation, Region, Value
from repro.core.ir.types import FunctionType, Type


def _format_attr(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_attr(v) for v in value) + "]"
    if isinstance(value, FunctionType):
        return str(value)
    if isinstance(value, Type):
        return str(value)
    if isinstance(value, dict):
        inner = ", ".join(
            f"{key} = {_format_attr(val)}" for key, val in value.items()
        )
        return "{" + inner + "}"
    return repr(value)


class Printer:
    """Stateful printer with per-scope value numbering."""

    def __init__(self):
        self._names: Dict[int, str] = {}
        self._counter = 0
        self._lines: List[str] = []

    def print_module(self, module: Module) -> str:
        """Render a whole module."""
        self._lines = []
        self._emit(f"builtin.module @{module.name} {{", 0)
        for op in module.body.operations:
            self._print_op(op, 1)
        self._emit("}", 0)
        return "\n".join(self._lines)

    def _emit(self, text: str, indent: int) -> None:
        self._lines.append("  " * indent + text)

    def _name_of(self, value: Value) -> str:
        key = id(value)
        if key not in self._names:
            self._names[key] = f"%{self._counter}"
            self._counter += 1
        return self._names[key]

    def _print_op(self, op: Operation, indent: int) -> None:
        if op.name == "func.func":
            self._print_func(op, indent)
            return
        parts = []
        if op.results:
            results = ", ".join(self._name_of(r) for r in op.results)
            parts.append(f"{results} = ")
        parts.append(op.name)
        if op.operands:
            operands = ", ".join(self._name_of(o) for o in op.operands)
            parts.append(f"({operands})")
        attrs = {
            key: value for key, value in op.attributes.items()
        }
        if attrs:
            inner = ", ".join(
                f"{key} = {_format_attr(value)}"
                for key, value in sorted(attrs.items())
            )
            parts.append(f" {{{inner}}}")
        if op.results:
            types = ", ".join(str(r.type) for r in op.results)
            parts.append(f" : {types}")
        line = "".join(parts)
        if op.regions:
            self._emit(line + " {", indent)
            for region in op.regions:
                self._print_region(region, indent + 1)
            self._emit("}", indent)
        else:
            self._emit(line, indent)

    def _print_func(self, op: Operation, indent: int) -> None:
        name = op.attr("sym_name")
        function_type: FunctionType = op.attr("function_type")
        region = op.regions[0]
        if region.blocks:
            args = ", ".join(
                f"{self._name_of(arg)}: {arg.type}"
                for arg in region.blocks[0].arguments
            )
        else:
            args = ", ".join(str(t) for t in function_type.inputs)
        results = ", ".join(str(t) for t in function_type.results)
        extra_attrs = {
            key: value
            for key, value in op.attributes.items()
            if key not in ("sym_name", "function_type")
        }
        attr_text = ""
        if extra_attrs:
            inner = ", ".join(
                f"{key} = {_format_attr(value)}"
                for key, value in sorted(extra_attrs.items())
            )
            attr_text = f" attributes {{{inner}}}"
        header = f"func.func @{name} ({args}) -> ({results}){attr_text}"
        if region.blocks and region.blocks[0].operations:
            self._emit(header + " {", indent)
            for block_op in region.blocks[0].operations:
                self._print_op(block_op, indent + 1)
            self._emit("}", indent)
        else:
            self._emit(header, indent)

    def _print_region(self, region: Region, indent: int) -> None:
        for index, block in enumerate(region.blocks):
            if block.arguments or index > 0:
                args = ", ".join(
                    f"{self._name_of(arg)}: {arg.type}"
                    for arg in block.arguments
                )
                self._emit(f"^bb{index}({args}):", indent)
            for op in block.operations:
                self._print_op(op, indent + 1 if block.arguments else indent)


def print_module(module: Module) -> str:
    """Render a module to MLIR-like text."""
    return Printer().print_module(module)
