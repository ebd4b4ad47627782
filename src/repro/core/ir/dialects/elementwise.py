"""The elementwise / scalar operation table: an operation described once.

One :class:`TensorOp` row per ``tensor.*`` elementwise operation, one
:class:`ScalarOp` row per ``kernel.*`` scalar operation and one
:class:`ReduceKind` row per ``tensor.reduce`` kind. Everything the
compile chain knows about such an operation below the HLS layer is a
column here, and every consumer derives its lookup from the dicts at
the bottom: the tensor and kernel dialect registrations, the DSL type
checker and IR emitter, ``is_elementwise`` (fusion and lowering), the
tensor → kernel lowering, ``estimate_work``, the reference interpreter
(and, through it, constant folding) and the SYCL emitter. Hardware
facts (``OP_LATENCY``, ``RESOURCE_CLASS``, the allocation classes) live
in :mod:`repro.core.hls`; ``tests/ir/test_op_table.py`` holds them to
this table.

Adding an operation is one row here, plus its latency / unit rows in
``hls/scheduling.py`` when it reaches hardware. Data plus lookups:
nothing registers rows at run time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class ScalarOp:
    """One ``kernel.*`` scalar operation."""

    name: str
    arity: int
    #: the one statement of what the op computes (Python / numpy scalars)
    evaluate: Callable[..., Any]
    #: C++ expression over the operand names ``{0}``, ``{1}``, ``{2}``
    cpp: str
    #: equivalent scalar-FLOP count in software (a software exp/tanh is
    #: a polynomial evaluation, not one instruction)
    weight: float
    commutative: bool = False


@dataclass(frozen=True)
class TensorOp:
    """One ``tensor.*`` elementwise operation."""

    name: str
    #: DSL spellings: a builtin's name, or an operator symbol
    dsl: Tuple[str, ...]
    reference: Callable[..., Any]  # numpy, whole arrays
    float_op: str  # the kernel op one element lowers to
    int_op: Optional[str] = None  # None: no integer lowering
    #: trailing constant operand of the lowered op (relu = maxf(x, 0))
    constant: Optional[float] = None

    @property
    def scalar(self) -> ScalarOp:
        """The row of the kernel op a float element lowers to."""
        return SCALAR[f"kernel.{self.float_op}"]

    @property
    def arity(self) -> int:
        return self.scalar.arity - (self.constant is not None)

    @property
    def commutative(self) -> bool:
        return self.constant is None and self.scalar.commutative

    @property
    def weight(self) -> float:
        """Software work per element: that of the op it lowers to."""
        return self.scalar.weight


def _divf(a, b):
    """IEEE division: ``x / 0`` is ``±inf`` and ``0 / 0`` is ``nan``
    for Python floats as for numpy scalars."""
    try:
        return a / b
    except ZeroDivisionError:
        if a == 0 or a != a:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


#: C++ ``/`` truncates; ``kernel.divi`` floors (as the evaluator and
#: ``absint.Interval.floordiv`` do), so signed operands get the fix-up.
_FLOOR_DIV_CPP = ("{0} / {1} - (({0} % {1} != 0) && "
                  "(({0} < 0) != ({1} < 0)))")

SCALAR_OPS: Tuple[ScalarOp, ...] = (
    ScalarOp("addf", 2, lambda a, b: a + b, "{0} + {1}", 1.0, True),
    ScalarOp("subf", 2, lambda a, b: a - b, "{0} - {1}", 1.0),
    ScalarOp("mulf", 2, lambda a, b: a * b, "{0} * {1}", 1.0, True),
    ScalarOp("divf", 2, _divf, "{0} / {1}", 8.0),
    ScalarOp("addi", 2, lambda a, b: a + b, "{0} + {1}", 1.0, True),
    ScalarOp("subi", 2, lambda a, b: a - b, "{0} - {1}", 1.0),
    ScalarOp("muli", 2, lambda a, b: a * b, "{0} * {1}", 1.0, True),
    ScalarOp("divi", 2, lambda a, b: a // b, _FLOOR_DIV_CPP, 1.0),
    ScalarOp("maxf", 2, max, "std::max({0}, {1})", 1.0, True),
    ScalarOp("minf", 2, min, "std::min({0}, {1})", 1.0, True),
    # compares, select and absf have always counted as no software work
    ScalarOp("cmplt", 2, lambda a, b: a < b, "{0} < {1}", 0.0),
    ScalarOp("cmple", 2, lambda a, b: a <= b, "{0} <= {1}", 0.0),
    ScalarOp("cmpeq", 2, lambda a, b: a == b, "{0} == {1}", 0.0, True),
    ScalarOp("cmpgt", 2, lambda a, b: a > b, "{0} > {1}", 0.0),
    ScalarOp("negf", 1, lambda a: -a, "-{0}", 1.0),
    ScalarOp("expf", 1, lambda a: float(np.exp(min(a, 700.0))),
             "std::exp({0})", 16.0),
    ScalarOp("sqrtf", 1, lambda a: math.sqrt(a) if a >= 0 else math.nan,
             "std::sqrt({0})", 8.0),
    ScalarOp("tanhf", 1, lambda a: float(np.tanh(a)),
             "std::tanh({0})", 20.0),
    ScalarOp("sigmoidf", 1, lambda a: float(1.0 / (1.0 + np.exp(-a))),
             "1.0f / (1.0f + std::exp(-{0}))", 20.0),
    ScalarOp("absf", 1, abs, "std::abs({0})", 0.0),
    ScalarOp("select", 3, lambda c, a, b: a if c else b,
             "{0} ? {1} : {2}", 0.0),
)

TENSOR_OPS: Tuple[TensorOp, ...] = (
    TensorOp("add", ("+",), np.add, "addf", "addi"),
    TensorOp("sub", ("-",), np.subtract, "subf", "subi"),
    TensorOp("mul", ("*",), np.multiply, "mulf", "muli"),
    TensorOp("div", ("/",), np.divide, "divf"),
    TensorOp("maximum", ("maximum",), np.maximum, "maxf"),
    TensorOp("minimum", ("minimum",), np.minimum, "minf"),
    TensorOp("neg", ("neg", "-"), np.negative, "negf"),
    TensorOp("exp", ("exp",), np.exp, "expf"),
    # there is no integer max: an integer relu has always lowered to maxf
    TensorOp("relu", ("relu",), lambda x: np.maximum(x, 0), "maxf", "maxf",
             constant=0.0),
    TensorOp("sqrt", ("sqrt",), np.sqrt, "sqrtf"),
    TensorOp("tanh", ("tanh",), np.tanh, "tanhf"),
    TensorOp("sigmoid", ("sigmoid",), lambda x: 1.0 / (1.0 + np.exp(-x)),
             "sigmoidf"),
)


@dataclass(frozen=True)
class ReduceKind:
    """One ``tensor.reduce`` kind."""

    name: str  # the op's ``kind`` attribute
    dsl: str  # the DSL builtin
    reference: Callable[..., Any]  # numpy: ``reference(array, axis=axes)``
    #: the accumulator's initial value, and the kernel op folding one
    #: element into it
    init: float
    combine: str
    #: divide by the count of reduced elements at the end
    mean: bool = False


REDUCE_KINDS: Tuple[ReduceKind, ...] = (
    ReduceKind("sum", "sum", np.sum, 0.0, "addf"),
    ReduceKind("mean", "mean", np.mean, 0.0, "addf", mean=True),
    ReduceKind("max", "rmax", np.max, -3.0e38, "maxf"),
    ReduceKind("min", "rmin", np.min, 3.0e38, "minf"),
)

#: qualified op name -> row
SCALAR: Dict[str, ScalarOp] = {
    f"kernel.{row.name}": row for row in SCALAR_OPS
}
TENSOR: Dict[str, TensorOp] = {
    f"tensor.{row.name}": row for row in TENSOR_OPS
}
#: DSL builtin name -> row, and operator ``(symbol, arity)`` -> row
#: (``-`` is ``sub`` between two operands and ``neg`` before one)
BUILTINS: Dict[str, TensorOp] = {
    spelling: row for row in TENSOR_OPS for spelling in row.dsl
    if spelling.isidentifier()
}
OPERATORS: Dict[Tuple[str, int], TensorOp] = {
    (spelling, row.arity): row for row in TENSOR_OPS
    for spelling in row.dsl if not spelling.isidentifier()
}
#: ``tensor.reduce`` kind -> row, and DSL reduction builtin -> row
REDUCE: Dict[str, ReduceKind] = {row.name: row for row in REDUCE_KINDS}
REDUCE_BUILTINS: Dict[str, ReduceKind] = {
    row.dsl: row for row in REDUCE_KINDS
}
