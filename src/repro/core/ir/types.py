"""Type system for the unified IR.

A deliberately small lattice: scalars, dense tensors, memory references
(buffers with an address space), streams, and function types. Types are
immutable and hash-consed by virtue of being frozen dataclasses, so they
can key dictionaries in passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import IRError


@dataclass(frozen=True)
class Type:
    """Base class of all IR types."""

    def __str__(self) -> str:  # pragma: no cover - overridden
        return self.__class__.__name__


@dataclass(frozen=True)
class ScalarType(Type):
    """A scalar: one of f32, f64, i1, i32, i64, index."""

    name: str

    _VALID = ("f32", "f64", "i1", "i8", "i32", "i64", "index")

    def __post_init__(self):
        if self.name not in self._VALID:
            raise IRError(f"unknown scalar type {self.name!r}")

    @property
    def is_float(self) -> bool:
        """True for floating-point scalars."""
        return self.name in ("f32", "f64")

    @property
    def bit_width(self) -> int:
        """Storage width in bits."""
        widths = {
            "f32": 32, "f64": 64, "i1": 1, "i8": 8,
            "i32": 32, "i64": 64, "index": 64,
        }
        return widths[self.name]

    @property
    def byte_width(self) -> int:
        """Storage width in bytes (i1 stored as one byte)."""
        return max(1, self.bit_width // 8)

    def __str__(self) -> str:
        return self.name


F32 = ScalarType("f32")
F64 = ScalarType("f64")
I1 = ScalarType("i1")
I8 = ScalarType("i8")
I32 = ScalarType("i32")
I64 = ScalarType("i64")
INDEX = ScalarType("index")


@dataclass(frozen=True)
class TensorType(Type):
    """A dense tensor value with static shape."""

    shape: Tuple[int, ...]
    element: ScalarType

    def __post_init__(self):
        for dim in self.shape:
            if dim <= 0:
                raise IRError(
                    f"tensor dimensions must be positive, got {self.shape}"
                )

    @property
    def rank(self) -> int:
        """Number of dimensions."""
        return len(self.shape)

    @property
    def num_elements(self) -> int:
        """Total element count."""
        total = 1
        for dim in self.shape:
            total *= dim
        return total

    @property
    def size_bytes(self) -> int:
        """Dense storage footprint in bytes."""
        return self.num_elements * self.element.byte_width

    def __str__(self) -> str:
        dims = "x".join(str(dim) for dim in self.shape)
        return f"tensor<{dims}x{self.element}>"


@dataclass(frozen=True)
class MemRefType(Type):
    """A reference to a buffer in a named memory space.

    ``layout`` distinguishes array-of-structures from
    structure-of-arrays for record data (paper §III-B variant example).
    """

    shape: Tuple[int, ...]
    element: ScalarType
    space: str = "default"
    layout: str = "row_major"

    _LAYOUTS = ("row_major", "col_major", "aos", "soa")

    def __post_init__(self):
        for dim in self.shape:
            if dim <= 0:
                raise IRError(
                    f"memref dimensions must be positive, got {self.shape}"
                )
        if self.layout not in self._LAYOUTS:
            raise IRError(f"unknown layout {self.layout!r}")

    @property
    def rank(self) -> int:
        """Number of dimensions."""
        return len(self.shape)

    @property
    def num_elements(self) -> int:
        """Total element count."""
        total = 1
        for dim in self.shape:
            total *= dim
        return total

    @property
    def size_bytes(self) -> int:
        """Dense storage footprint in bytes."""
        return self.num_elements * self.element.byte_width

    def with_layout(self, layout: str) -> "MemRefType":
        """Copy of this type with a different data layout."""
        return MemRefType(self.shape, self.element, self.space, layout)

    def __str__(self) -> str:
        dims = "x".join(str(dim) for dim in self.shape)
        suffix = ""
        if self.space != "default":
            suffix += f", {self.space}"
        if self.layout != "row_major":
            suffix += f", {self.layout}"
        return f"memref<{dims}x{self.element}{suffix}>"


@dataclass(frozen=True)
class StreamType(Type):
    """A FIFO stream of scalar or tensor elements (dataflow edges)."""

    element: Type
    depth: int = 0  # 0 = unbounded

    def __post_init__(self):
        if self.depth < 0:
            raise IRError(f"stream depth must be >= 0, got {self.depth}")

    def __str__(self) -> str:
        if self.depth:
            return f"stream<{self.element}, {self.depth}>"
        return f"stream<{self.element}>"


@dataclass(frozen=True)
class TokenType(Type):
    """A pure control dependence (no data)."""

    def __str__(self) -> str:
        return "token"


TOKEN = TokenType()


@dataclass(frozen=True)
class FunctionType(Type):
    """Signature of a function or task kernel."""

    inputs: Tuple[Type, ...] = field(default_factory=tuple)
    results: Tuple[Type, ...] = field(default_factory=tuple)

    def __str__(self) -> str:
        ins = ", ".join(str(t) for t in self.inputs)
        outs = ", ".join(str(t) for t in self.results)
        return f"({ins}) -> ({outs})"


def _shape_of(declared: Type) -> Optional[Tuple[int, ...]]:
    if isinstance(declared, (TensorType, MemRefType)):
        return tuple(declared.shape)
    return None


def _dtype_of(declared: Type) -> str:
    if isinstance(declared, (TensorType, MemRefType)):
        return declared.element.name
    if isinstance(declared, ScalarType):
        return declared.name
    return str(declared)


def _render_shape(shape: Optional[Tuple[int, ...]], declared: Type) -> str:
    if shape is None:
        return f"{declared} (scalar)"
    return "x".join(str(dim) for dim in shape) or "<>"


def compare_contract(
    diagnostics, anchor: str, role: str, actual: Type, expected: Type,
) -> None:
    """Report a producer/consumer disagreement on one value's type.

    A shape mismatch is WF010, a dtype mismatch (same shape) WF011,
    emitted on ``diagnostics``
    (:class:`~repro.diagnostics.Diagnostics`). The IR contract check
    (``check_module_contracts``) and the pipeline one
    (``Pipeline.to_ir``) both compare through here.
    """
    actual_shape, expected_shape = _shape_of(actual), _shape_of(expected)
    if actual_shape != expected_shape:
        diagnostics.error(
            "WF010",
            f"{role} has shape "
            f"{_render_shape(actual_shape, actual)} but the callee "
            f"declares {_render_shape(expected_shape, expected)}",
            anchor=anchor, analysis="absint",
        )
        return
    if _dtype_of(actual) != _dtype_of(expected):
        diagnostics.error(
            "WF011",
            f"{role} has dtype {_dtype_of(actual)} but the callee "
            f"declares {_dtype_of(expected)}",
            anchor=anchor, analysis="absint",
        )
