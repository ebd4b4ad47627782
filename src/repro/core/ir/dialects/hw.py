"""Hardware dialect: memory customization and accelerator streams.

Carries the memory-subsystem customization the paper describes
(§III-B, [28-30]): ``hw.partition`` records banking/multi-port
directives on a buffer; ``hw.stream_read`` and ``hw.stream_write``
connect accelerators over FIFO channels.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.ir.dialects import (
    Dialect,
    OpDef,
    register_dialect,
)
from repro.core.ir.ops import Operation, Value
from repro.core.ir.types import StreamType
from repro.errors import IRError

hw_dialect = register_dialect(
    Dialect("hw", "accelerators and memory customization")
)


def _verify_partition(op: Operation) -> None:
    scheme = op.attr("scheme")
    if scheme not in ("cyclic", "block", "complete"):
        raise IRError(
            "hw.partition: scheme must be cyclic/block/complete, "
            f"got {scheme!r}"
        )
    factor = op.attr("factor")
    if not isinstance(factor, int) or factor < 1:
        raise IRError("hw.partition: positive integer factor required")


def partition_directives(function) -> Dict[int, Tuple[Value, str, int]]:
    """``id(buffer) -> (buffer, scheme, factor)`` of a function body.

    The one reader of ``hw.partition``: every layer that honours or
    checks the directives (memory planner, performance analyzer,
    partition lints, DSE pruning) sees the same answer. A missing
    ``factor`` reads as 1, an operand-less directive is skipped and
    the last directive on a buffer wins; rejecting malformed
    directives stays the verifier's job (:func:`_verify_partition`).
    """
    directives: Dict[int, Tuple[Value, str, int]] = {}
    for op in function.walk():
        if op.name == "hw.partition" and op.operands:
            directives[id(op.operands[0])] = (
                op.operands[0], str(op.attr("scheme")),
                int(op.attr("factor", 1)),
            )
    return directives


def _verify_stream_read(op: Operation) -> None:
    if not isinstance(op.operands[0].type, StreamType):
        raise IRError("hw.stream_read operand must be a stream")


def _verify_stream_write(op: Operation) -> None:
    if not isinstance(op.operands[0].type, StreamType):
        raise IRError("hw.stream_write first operand must be a stream")


hw_dialect.register(
    OpDef(name="partition", min_operands=1, max_operands=1, num_results=0,
          verify=_verify_partition)
)
hw_dialect.register(
    OpDef(name="stream_read", min_operands=1, max_operands=1, num_results=1,
          verify=_verify_stream_read)
)
hw_dialect.register(
    OpDef(name="stream_write", min_operands=2, max_operands=2, num_results=0,
          verify=_verify_stream_write)
)
hw_dialect.register(OpDef(name="stream", min_operands=0, max_operands=0,
                          num_results=1))
