"""SYCL-like C++ code generation from kernel-form IR.

The EVEREST backend re-expresses selected variants in a mainstream
parallel programming model so standard toolchains can build them. The
generator walks the kernel-form function and emits a C++ translation
unit: buffers become raw pointers with row-major flattening, loop nests
become ``for`` statements, and the outermost parallel loop becomes a
``parallel_for`` over a SYCL range. A scalar op's C++ spelling is the
``cpp`` column of the op table (:mod:`repro.core.ir.dialects.elementwise`),
so an op the interpreter can run is an op this backend can emit.

The emitted text is syntactically plausible SYCL; it is not compiled
here (no SYCL toolchain offline) but is exercised structurally by the
tests and serves as the packaged software-variant artifact.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.ir.dialects.elementwise import SCALAR
from repro.core.ir.module import Function, Module
from repro.core.ir.ops import Block, Operation, Value
from repro.core.ir.types import INDEX, MemRefType, ScalarType
from repro.errors import BackendError

_CPP_TYPES = {
    "f32": "float", "f64": "double", "i1": "bool", "i8": "int8_t",
    "i32": "int32_t", "i64": "int64_t", "index": "size_t",
}


class _SyclEmitter:
    """Emits one function; values get stable C++ identifiers."""

    def __init__(self, function: Function):
        self.function = function
        self.names: Dict[int, str] = {}
        self.counter = 0
        self.lines: List[str] = []
        self.indent = 1

    def _emit(self, text: str) -> None:
        self.lines.append("  " * self.indent + text)

    def _name(self, value: Value) -> str:
        key = id(value)
        if key not in self.names:
            self.names[key] = f"v{self.counter}"
            self.counter += 1
        return self.names[key]

    def _cpp_type(self, scalar: ScalarType) -> str:
        return _CPP_TYPES[scalar.name]

    # ------------------------------------------------------------------

    def emit_function(self) -> str:
        function = self.function
        params: List[str] = []
        for value in function.arguments:
            declared = value.type
            if isinstance(declared, MemRefType):
                params.append(
                    f"{self._cpp_type(declared.element)}* "
                    f"{self._name(value)}"
                )
            elif isinstance(declared, ScalarType):
                params.append(
                    f"{self._cpp_type(declared)} {self._name(value)}"
                )
            else:
                raise BackendError(
                    f"SYCL backend cannot pass parameter of type "
                    f"{declared}"
                )
        result = "void"
        if function.type.results:
            if len(function.type.results) > 1:
                raise BackendError(
                    "SYCL backend supports at most one scalar result"
                )
            only = function.type.results[0]
            if not isinstance(only, ScalarType):
                raise BackendError(
                    "non-scalar results must be out-parameters; run "
                    "LowerTensorPass first"
                )
            result = self._cpp_type(only)

        header = (
            f"{result} {function.name}(sycl::queue &q, "
            + ", ".join(params) + ") {"
        )
        self.lines = [header]
        self._emit_block(function.entry_block, top_level=True)
        self.lines.append("}")
        return "\n".join(self.lines)

    def _emit_block(self, block: Block, top_level: bool = False) -> None:
        first_loop = True
        for op in block.operations:
            if op.name == "kernel.for" and top_level and first_loop:
                first_loop = False
                self._emit_parallel_for(op)
            else:
                self._emit_op(op)

    def _emit_parallel_for(self, op: Operation) -> None:
        lower, upper = op.attr("lower"), op.attr("upper")
        step = op.attr("step")
        if step != 1 or lower != 0:
            self._emit_for(op)
            return
        body = op.regions[0].blocks[0]
        iv = self._name(body.arguments[0])
        self._emit("q.submit([&](sycl::handler &h) {")
        self.indent += 1
        self._emit(
            f"h.parallel_for(sycl::range<1>({upper}), "
            f"[=](sycl::id<1> {iv}_id) {{"
        )
        self.indent += 1
        self._emit(f"size_t {iv} = {iv}_id[0];")
        self._emit_block(body)
        self.indent -= 1
        self._emit("});")
        self.indent -= 1
        self._emit("}).wait();")

    def _emit_for(self, op: Operation) -> None:
        lower, upper = op.attr("lower"), op.attr("upper")
        step = op.attr("step")
        body = op.regions[0].blocks[0]
        iv = self._name(body.arguments[0])
        self._emit(
            f"for (size_t {iv} = {lower}; {iv} < {upper}; "
            f"{iv} += {step}) {{"
        )
        self.indent += 1
        self._emit_block(body)
        self.indent -= 1
        self._emit("}")

    def _flat_index(self, memref: MemRefType,
                    indices: List[Value]) -> str:
        terms: List[str] = []
        stride = 1
        strides: List[int] = []
        for dim in reversed(memref.shape):
            strides.append(stride)
            stride *= dim
        strides.reverse()
        for value, dim_stride in zip(indices, strides):
            if dim_stride == 1:
                terms.append(self._name(value))
            else:
                terms.append(f"{self._name(value)} * {dim_stride}")
        return " + ".join(terms) if terms else "0"

    def _emit_op(self, op: Operation) -> None:
        name = op.name
        if name == "kernel.for":
            self._emit_for(op)
        elif name == "kernel.yield":
            pass
        elif name == "func.return":
            if op.operands:
                self._emit(f"return {self._name(op.operands[0])};")
        elif name == "kernel.const":
            value = op.attr("value")
            result = op.results[0]
            cpp = self._cpp_type(result.type)
            literal = (
                f"{value}" if isinstance(value, int)
                else f"{float(value)}f" if cpp == "float"
                else f"{float(value)}"
            )
            self._emit(f"{cpp} {self._name(result)} = {literal};")
        elif name == "kernel.alloc":
            memref: MemRefType = op.results[0].type
            cpp = self._cpp_type(memref.element)
            self._emit(
                f"std::vector<{cpp}> {self._name(op.results[0])}_storage"
                f"({memref.num_elements});"
            )
            self._emit(
                f"{cpp}* {self._name(op.results[0])} = "
                f"{self._name(op.results[0])}_storage.data();"
            )
        elif name == "kernel.view":
            source = self._name(op.operands[0])
            self._emit(
                f"auto* {self._name(op.results[0])} = {source};"
            )
        elif name == "kernel.load":
            memref = op.operands[0].type
            index = self._flat_index(memref, list(op.operands[1:]))
            self._emit(
                f"auto {self._name(op.results[0])} = "
                f"{self._name(op.operands[0])}[{index}];"
            )
        elif name == "kernel.store":
            memref = op.operands[1].type
            index = self._flat_index(memref, list(op.operands[2:]))
            self._emit(
                f"{self._name(op.operands[1])}[{index}] = "
                f"{self._name(op.operands[0])};"
            )
        elif name in SCALAR:
            template = SCALAR[name].cpp
            if name == "kernel.divi" and op.operands[0].type == INDEX:
                template = "{0} / {1}"  # size_t: truncating is flooring
            result = self._name(op.results[0])
            expression = template.format(
                *[self._name(operand) for operand in op.operands])
            self._emit(f"auto {result} = {expression};")
        elif name == "secure.taint":
            self._emit(
                f"auto {self._name(op.results[0])} = "
                f"{self._name(op.operands[0])}; "
                f"// taint: {op.attr('label')}"
            )
        elif name == "secure.check":
            self._emit(
                f"everest::dift_check(\"{op.attr('policy')}\");"
            )
        elif name in ("secure.encrypt", "secure.decrypt"):
            verb = name.split(".")[1]
            self._emit(
                f"auto {self._name(op.results[0])} = "
                f"everest::{verb}<{op.attr('cipher')!r}>("
                f"{self._name(op.operands[0])});"
            )
        else:
            raise BackendError(f"SYCL backend: unsupported op {name}")


def generate_sycl(module: Module, kernel: str) -> str:
    """Emit a SYCL-like C++ translation unit for one kernel."""
    function = module.find_function(kernel)
    if function is None:
        raise BackendError(f"no function named {kernel!r}")
    for op in function.walk():
        if op.dialect == "tensor":
            raise BackendError(
                f"{kernel!r} is still in tensor form; run "
                f"LowerTensorPass before code generation"
            )
    emitter = _SyclEmitter(function)
    body = emitter.emit_function()
    prelude = "\n".join([
        "// Generated by the EVEREST SDK backend",
        "#include <sycl/sycl.hpp>",
        "#include <algorithm>",
        "#include <cmath>",
        "#include <cstdint>",
        "#include <vector>",
        "#include \"everest_runtime.hpp\"",
        "",
    ])
    return prelude + body + "\n"
