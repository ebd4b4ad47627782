"""IR construction helper with an insertion point.

Wraps the generic :class:`Operation` constructor with dialect-aware
convenience methods so frontends and passes build well-formed IR
concisely. Every ``create`` checks that the op is registered.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Sequence

from repro.core.ir.dialects import lookup_op
from repro.core.ir.dialects.kernel import loop_range
from repro.core.ir.ops import Block, Operation, Value
from repro.core.ir.types import (
    F32,
    INDEX,
    MemRefType,
    ScalarType,
    TensorType,
    Type,
)
from repro.errors import IRError


class Builder:
    """Creates operations at an insertion point (end of a block)."""

    def __init__(self, block: Optional[Block] = None):
        self.block = block

    def set_insertion_point(self, block: Block) -> None:
        """Move the insertion point to the end of ``block``."""
        self.block = block

    @contextmanager
    def at_block(self, block: Block) -> Iterator["Builder"]:
        """Temporarily build into another block."""
        saved = self.block
        self.block = block
        try:
            yield self
        finally:
            self.block = saved

    def create(
        self,
        name: str,
        operands: Sequence[Value] = (),
        result_types: Sequence[Type] = (),
        attributes: Optional[Dict[str, Any]] = None,
        num_regions: int = 0,
    ) -> Operation:
        """Create a registered operation and insert it."""
        lookup_op(name)  # raises for unknown ops
        op = Operation(
            name,
            operands=operands,
            result_types=result_types,
            attributes=attributes,
            num_regions=num_regions,
        )
        if self.block is None:
            raise IRError("builder has no insertion point")
        self.block.append(op)
        return op

    # ------------------------------------------------------------------
    # kernel dialect helpers
    # ------------------------------------------------------------------

    def const(self, value: float, type: ScalarType = F32) -> Value:
        """Materialize a scalar constant."""
        op = self.create(
            "kernel.const", result_types=[type], attributes={"value": value}
        )
        return op.result

    def index_const(self, value: int) -> Value:
        """Materialize an index constant."""
        return self.const(int(value), INDEX)

    def _binary(self, name: str, lhs: Value, rhs: Value) -> Value:
        return self.create(name, [lhs, rhs], [lhs.type]).result

    def addf(self, lhs: Value, rhs: Value) -> Value:
        """Floating add."""
        return self._binary("kernel.addf", lhs, rhs)

    def mulf(self, lhs: Value, rhs: Value) -> Value:
        """Floating multiply."""
        return self._binary("kernel.mulf", lhs, rhs)

    def select(self, cond: Value, if_true: Value, if_false: Value) -> Value:
        """Ternary select."""
        op = self.create(
            "kernel.select",
            operands=[cond, if_true, if_false],
            result_types=[if_true.type],
        )
        return op.result

    def unary(self, name: str, operand: Value) -> Value:
        """A unary kernel op such as kernel.expf."""
        op = self.create(
            f"kernel.{name}", operands=[operand],
            result_types=[operand.type],
        )
        return op.result

    def alloc(self, memref_type: MemRefType) -> Value:
        """Allocate a local buffer."""
        return self.create("kernel.alloc", result_types=[memref_type]).result

    def load(self, memref: Value, indices: Sequence[Value]) -> Value:
        """Load one element."""
        memref_type = memref.type
        if not isinstance(memref_type, MemRefType):
            raise IRError(f"load target must be a memref, got {memref_type}")
        op = self.create(
            "kernel.load",
            operands=[memref, *indices],
            result_types=[memref_type.element],
        )
        return op.result

    def store(self, value: Value, memref: Value,
              indices: Sequence[Value]) -> Operation:
        """Store one element."""
        return self.create(
            "kernel.store", operands=[value, memref, *indices]
        )

    def for_loop(self, lower: int, upper: int) -> "LoopHandle":
        """Create a unit-step kernel.for; returns a handle exposing the body."""
        op = self.create(
            "kernel.for",
            attributes={"lower": int(lower), "upper": int(upper), "step": 1},
            num_regions=1,
        )
        body = op.regions[0].add_block([INDEX])
        return LoopHandle(op, body)

    def yield_op(self) -> Operation:
        """Terminate a kernel region."""
        return self.create("kernel.yield")

    # ------------------------------------------------------------------
    # tensor dialect helpers
    # ------------------------------------------------------------------

    def tensor_op(self, name: str, operands: Sequence[Value],
                  result_type: TensorType,
                  attributes: Optional[Dict[str, Any]] = None) -> Value:
        """Create a tensor-dialect op with one result."""
        op = self.create(
            f"tensor.{name}", operands=operands,
            result_types=[result_type], attributes=attributes,
        )
        return op.result

    def matmul(self, lhs: Value, rhs: Value) -> Value:
        """Matrix multiply of two rank-2 tensors."""
        lhs_type, rhs_type = lhs.type, rhs.type
        if not (isinstance(lhs_type, TensorType)
                and isinstance(rhs_type, TensorType)):
            raise IRError("matmul operands must be tensors")
        result = TensorType(
            (lhs_type.shape[0], rhs_type.shape[1]), lhs_type.element
        )
        return self.tensor_op("matmul", [lhs, rhs], result)

    # ------------------------------------------------------------------
    # func dialect helpers
    # ------------------------------------------------------------------

    def ret(self, values: Sequence[Value] = ()) -> Operation:
        """func.return."""
        return self.create("func.return", operands=values)

    def call(self, callee: str, operands: Sequence[Value],
             result_types: Sequence[Type]) -> Operation:
        """func.call to a symbol."""
        return self.create(
            "func.call",
            operands=operands,
            result_types=result_types,
            attributes={"callee": callee},
        )


class LoopHandle:
    """Handle to a created kernel.for: the op, body block and IV."""

    def __init__(self, op: Operation, body: Block):
        self.op = op
        self.body = body

    @property
    def induction_var(self) -> Value:
        """The loop induction variable (the body's block argument)."""
        return self.body.arguments[0]

    @property
    def trip_count(self) -> int:
        """Number of iterations."""
        return loop_range(self.op)[3]
