"""Top-level IR containers: modules and functions.

A :class:`Module` owns a single ``builtin.module`` operation whose one
block holds ``func.func`` operations. :class:`Function` is a convenience
wrapper over a ``func.func`` op giving named access to its signature
and entry block.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from repro.core.ir.ops import Block, Operation, Region, Value
from repro.core.ir.types import FunctionType
from repro.errors import IRError


class Function:
    """Wrapper around a ``func.func`` operation."""

    def __init__(self, op: Operation):
        if op.name != "func.func":
            raise IRError(f"expected func.func, got {op.name}")
        if "sym_name" not in op.attributes:
            raise IRError("func.func requires a sym_name attribute")
        if not isinstance(op.attr("function_type"), FunctionType):
            raise IRError("func.func requires a function_type attribute")
        self.op = op

    @property
    def name(self) -> str:
        """Symbol name."""
        return self.op.attr("sym_name")

    @property
    def type(self) -> FunctionType:
        """Function signature."""
        return self.op.attr("function_type")

    @property
    def body(self) -> Region:
        """The body region."""
        return self.op.regions[0]

    @property
    def entry_block(self) -> Block:
        """Entry block of the body."""
        return self.body.entry

    @property
    def arguments(self) -> List[Value]:
        """Entry block arguments (the function parameters)."""
        return self.entry_block.arguments

    @property
    def is_declaration(self) -> bool:
        """True when the function has no body blocks."""
        return self.body.empty or not self.body.blocks[0].operations

    def walk(self) -> Iterator[Operation]:
        """All operations in the body, pre-order."""
        return self.body.walk()

    def __repr__(self) -> str:
        return f"<func {self.name} : {self.type}>"


class Module:
    """A compilation unit: an ordered set of functions plus metadata."""

    def __init__(self, name: str = "module"):
        self.op = Operation(
            "builtin.module", attributes={"sym_name": name}, num_regions=1
        )
        self.op.regions[0].add_block()

    @property
    def name(self) -> str:
        """Module symbol name."""
        return self.op.attr("sym_name")

    @property
    def body(self) -> Block:
        """The single block holding top-level operations."""
        return self.op.regions[0].blocks[0]

    @property
    def version(self) -> int:
        """Monotonic mutation counter; bumps on every structural edit.

        :func:`repro.core.ir.digest.module_digest` memoizes on this, so
        digesting an unmutated module is a counter compare, not a full
        reprint of the IR.
        """
        return self.op.version

    def add_function(
        self,
        name: str,
        function_type: FunctionType,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> Function:
        """Create a ``func.func`` in this module and return its wrapper.

        Its entry block is empty, so it is a declaration until an
        operation is added."""
        if self.find_function(name) is not None:
            raise IRError(f"duplicate function symbol {name!r}")
        attrs = dict(attributes or {})
        attrs["sym_name"] = name
        attrs["function_type"] = function_type
        op = Operation("func.func", attributes=attrs, num_regions=1)
        op.regions[0].add_block(list(function_type.inputs))
        self.body.append(op)
        return Function(op)

    def functions(self) -> List[Function]:
        """All functions in declaration order."""
        return [
            Function(op)
            for op in self.body.operations
            if op.name == "func.func"
        ]

    def find_function(self, name: str) -> Optional[Function]:
        """Look up a function by symbol name."""
        for op in self.body.operations:
            if op.name == "func.func" and op.attr("sym_name") == name:
                return Function(op)
        return None

    def remove_function(self, name: str) -> None:
        """Delete a function by symbol name."""
        function = self.find_function(name)
        if function is None:
            raise IRError(f"no function named {name!r}")
        self.body.operations.remove(function.op)
        function.op.parent = None

    def walk(self) -> Iterator[Operation]:
        """Every operation in the module, pre-order."""
        return self.op.walk()

    def clone(self) -> "Module":
        """Deep copy of the whole module."""
        new = Module(self.name)
        value_map: Dict[Value, Value] = {}
        for op in self.body.operations:
            new.body.append(op.clone(value_map))
        return new

    def __repr__(self) -> str:
        names = ", ".join(f.name for f in self.functions())
        return f"<module {self.name} [{names}]>"
