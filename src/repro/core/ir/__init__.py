"""Unified MLIR-style intermediate representation (paper Fig. 1, [22]).

The compiler front-end lowers workflow descriptions, tensor-expression
DSL kernels and imported ML models into a single module mixing five
dialects (workflow, tensor, kernel, hw, secure); passes then transform
it into code variants.
"""

from repro.core.ir.types import (
    F32,
    F64,
    I1,
    I8,
    I32,
    I64,
    INDEX,
    TOKEN,
    FunctionType,
    MemRefType,
    ScalarType,
    StreamType,
    TensorType,
    TokenType,
    Type,
)
from repro.core.ir.ops import Block, Operation, Region, Value
from repro.core.ir.module import Function, Module
from repro.core.ir.builder import Builder, LoopHandle
from repro.core.ir.verifier import verify
from repro.core.ir.printer import print_module
from repro.core.ir.parser import parse_module
from repro.core.ir.digest import module_digest
import repro.core.ir.dialects  # noqa: F401  (registers dialects)

__all__ = [
    "F32",
    "F64",
    "I1",
    "I8",
    "I32",
    "I64",
    "INDEX",
    "TOKEN",
    "Type",
    "ScalarType",
    "TensorType",
    "MemRefType",
    "StreamType",
    "TokenType",
    "FunctionType",
    "Value",
    "Operation",
    "Block",
    "Region",
    "Module",
    "Function",
    "Builder",
    "LoopHandle",
    "verify",
    "print_module",
    "parse_module",
    "module_digest",
]
