"""The op table (``core/ir/dialects/elementwise.py``) against everything
that reads it, one case per row.

A tensor row (and a reduction kind) is driven end to end — DSL text, type check, verifier,
fusion, lowering (fused and unfused), interpreter at both levels, numpy,
SYCL — and its software weight and hardware rows are pinned as the
literals the tree carried before the table existed. A scalar row is
folded and interpreted. The last class ties the tables that stay
outside (HLS latencies and unit classes, allocation classes, absint's
transfer functions, the frontend's activation whitelist, the tutorial)
to the table's rows, so an operation added in one place and forgotten
in another fails here and not at emission.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from repro.core.analysis import absint
from repro.core.backend.sycl_gen import generate_sycl
from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.frontend import _ACTIVATIONS
from repro.core.hls import allocation
from repro.core.hls.scheduling import OP_LATENCY, RESOURCE_CLASS
from repro.core.ir import F32, I1, I32, FunctionType, Module, verify
from repro.core.ir.builder import Builder
from repro.core.ir.dialects import (
    TRAIT_COMMUTATIVE,
    get_dialect,
    lookup_op,
)
from repro.core.ir.dialects.elementwise import (
    BUILTINS,
    OPERATORS,
    REDUCE,
    REDUCE_BUILTINS,
    REDUCE_KINDS,
    SCALAR,
    SCALAR_OPS,
    TENSOR,
    TENSOR_OPS,
)
from repro.core.ir.interp import run_function
from repro.core.ir.passes import (
    CanonicalizePass,
    ConstantFoldPass,
    ElementwiseFusionPass,
    LowerTensorPass,
)
from repro.core.ir.passes.canonicalize import _FOLDED
from repro.core.ir.passes.fusion import is_elementwise
from repro.core.ir.passes.partitioning import estimate_work
from repro.errors import VerificationError

ELEMENTS = 16

#: tensor op -> (software weight per element, kernel op per element,
#: commutative); recorded from ``_OP_WEIGHTS``, the lowering maps and
#: the dialect registration of the parent.
TENSOR_PINNED = {
    "add": (1.0, "addf", True), "sub": (1.0, "subf", False),
    "mul": (1.0, "mulf", True), "div": (8.0, "divf", False),
    "maximum": (1.0, "maxf", True), "minimum": (1.0, "minf", True),
    "neg": (1.0, "negf", False), "exp": (16.0, "expf", False),
    "relu": (1.0, "maxf", False), "sqrt": (8.0, "sqrtf", False),
    "tanh": (20.0, "tanhf", False), "sigmoid": (20.0, "sigmoidf", False),
}

#: kernel op -> (software weight, OP_LATENCY, RESOURCE_CLASS or None,
#: commutative); recorded from the parent's five tables.
SCALAR_PINNED = {
    "addf": (1.0, 3, "fadd", True), "subf": (1.0, 3, "fadd", False),
    "mulf": (1.0, 4, "fmul", True), "divf": (8.0, 14, "fdiv", False),
    "addi": (1.0, 1, None, True), "subi": (1.0, 1, None, False),
    "muli": (1.0, 2, None, True), "divi": (1.0, 18, None, False),
    "maxf": (1.0, 1, None, True), "minf": (1.0, 1, None, True),
    "cmplt": (0.0, 1, None, False), "cmple": (0.0, 1, None, False),
    "cmpeq": (0.0, 1, None, True), "cmpgt": (0.0, 1, None, False),
    "negf": (1.0, 1, None, False), "expf": (16.0, 18, "special", False),
    "sqrtf": (8.0, 12, "special", False),
    "tanhf": (20.0, 20, "special", False),
    "sigmoidf": (20.0, 20, "special", False),
    "absf": (0.0, 1, None, False), "select": (0.0, 1, None, False),
}


def _kernel_source(row, spelling):
    shape = f"tensor<{ELEMENTS}xf32>"
    if spelling in BUILTINS:
        call = f"{spelling}({', '.join('AB'[:row.arity])})"
    else:
        call = f"A {spelling} B" if row.arity == 2 else f"{spelling}A"
    return (f"kernel k(A: {shape}, B: {shape}) -> {shape} {{\n"
            f"  Y = {call}\n  return Y\n}}\n")


def _arguments(row):
    rng = np.random.default_rng(7)
    lhs = rng.uniform(-2.0, 2.0, ELEMENTS).astype(np.float32)
    if row.name == "sqrt":
        lhs = np.abs(lhs) + np.float32(0.1)
    rhs = rng.uniform(0.5, 2.0, ELEMENTS).astype(np.float32)
    return lhs, rhs


TENSOR_CASES = [
    pytest.param(row, spelling, id=f"{row.name}[{spelling}]")
    for row in TENSOR_OPS for spelling in row.dsl
]


class TestTensorRows:
    def test_every_row_is_pinned(self):
        assert [row.name for row in TENSOR_OPS] == list(TENSOR_PINNED)

    @pytest.mark.parametrize("row, spelling", TENSOR_CASES)
    def test_row_end_to_end(self, row, spelling):
        weight, kernel_op, _ = TENSOR_PINNED[row.name]
        lhs, rhs = _arguments(row)
        expected = row.reference(*(lhs, rhs)[:row.arity])

        # DSL text -> type-checked, verified tensor form
        module = compile_kernel(_kernel_source(row, spelling))
        verify(module)
        op, = [op for op in module.find_function("k").walk()
               if op.dialect == "tensor"]
        assert op.name == f"tensor.{row.name}" and is_elementwise(op)
        assert len(op.operands) == row.arity
        tensor_out, = run_function(module, "k", lhs, rhs)
        np.testing.assert_allclose(tensor_out, expected, rtol=1e-6)
        assert estimate_work(module.find_function("k"))[0] == \
            weight * ELEMENTS

        for fused in (True, False):
            lowered = compile_kernel(_kernel_source(row, spelling))
            if fused:
                ElementwiseFusionPass().run(lowered)
                assert all(
                    (each.attr("fusion_group") is not None)
                    == is_elementwise(each)
                    for each in lowered.find_function("k").walk())
            LowerTensorPass().run(lowered)
            CanonicalizePass().run(lowered)
            verify(lowered)
            function = lowered.find_function("k")
            arithmetic = [each.opname for each in function.walk()
                          if each.name in SCALAR]
            assert arithmetic == [kernel_op]
            # weights agree across the lowering: same work either side
            assert estimate_work(function)[0] == weight * ELEMENTS
            produced = np.zeros(ELEMENTS, np.float32)
            run_function(lowered, "k", lhs, rhs, produced)
            np.testing.assert_allclose(produced, expected, rtol=1e-5)
            np.testing.assert_allclose(produced, tensor_out, rtol=1e-5)
            assert "auto " in generate_sycl(lowered, "k")

    def test_a_shape_op_is_not_elementwise_and_does_not_fuse(self):
        module = compile_kernel(
            "kernel k(A: tensor<4x8xf32>) -> tensor<8x4xf32> {\n"
            "  Y = transpose(A)\n  return Y\n}\n")
        ElementwiseFusionPass().run(module)
        op, = [op for op in module.find_function("k").walk()
               if op.dialect == "tensor"]
        assert not is_elementwise(op)
        assert op.attr("fusion_group") is None

    @pytest.mark.parametrize("row", TENSOR_OPS, ids=lambda row: row.name)
    def test_registration_is_the_row(self, row):
        weight, kernel_op, commutative = TENSOR_PINNED[row.name]
        opdef = lookup_op(f"tensor.{row.name}")
        assert opdef.min_operands == opdef.max_operands == row.arity
        assert opdef.has_trait(TRAIT_COMMUTATIVE) == commutative
        assert (row.weight, row.float_op, row.commutative) == (
            weight, kernel_op, commutative)


#: reduce kind -> (DSL builtin, accumulator init, combining kernel op,
#: scaled by the element count); recorded from ``REDUCE_BUILTINS``, the
#: interpreter's reducers and the lowering of the parent.
REDUCE_PINNED = {
    "sum": ("sum", 0.0, "addf", False),
    "mean": ("mean", 0.0, "addf", True),
    "max": ("rmax", -3.0e38, "maxf", False),
    "min": ("rmin", 3.0e38, "minf", False),
}


class TestReduceRows:
    def test_every_row_is_pinned(self):
        assert [row.name for row in REDUCE_KINDS] == list(REDUCE_PINNED)
        assert {builtin: row.name for builtin, row in REDUCE_BUILTINS.items()
                } == {pinned[0]: kind for kind, pinned
                      in REDUCE_PINNED.items()}

    @pytest.mark.parametrize("row", REDUCE_KINDS, ids=lambda row: row.name)
    def test_row_end_to_end(self, row):
        builtin, init, combine, scaled = REDUCE_PINNED[row.name]
        assert (row.dsl, row.init, row.combine, row.mean) == (
            builtin, init, combine, scaled)
        source = (f"kernel k(A: tensor<4x{ELEMENTS}xf32>) -> tensor<4xf32> "
                  f"{{\n  Y = {builtin}(A, axes=[1])\n  return Y\n}}\n")
        values = np.random.default_rng(3).uniform(
            -2.0, 2.0, (4, ELEMENTS)).astype(np.float32)
        expected = row.reference(values, axis=(1,))

        module = compile_kernel(source)
        verify(module)
        op, = [op for op in module.find_function("k").walk()
               if op.dialect == "tensor"]
        assert (op.name, op.attr("kind")) == ("tensor.reduce", row.name)
        tensor_out, = run_function(module, "k", values)
        np.testing.assert_allclose(tensor_out, expected, rtol=1e-5)

        LowerTensorPass().run(module)
        verify(module)
        function = module.find_function("k")
        constants = [each.attr("value") for each in function.walk()
                     if each.name == "kernel.const"
                     and each.results[0].type == F32]
        assert constants[0] == init
        arithmetic = [each.opname for each in function.walk()
                      if each.name in SCALAR]
        assert arithmetic == [combine] + (["mulf"] if scaled else [])
        produced = np.zeros(4, np.float32)
        run_function(module, "k", values, produced)
        np.testing.assert_allclose(produced, expected, rtol=1e-5)

    def test_the_verifier_accepts_exactly_the_rows(self):
        module = compile_kernel(
            "kernel k(A: tensor<8xf32>) -> tensor<1xf32> {\n"
            "  Y = sum(A)\n  return Y\n}\n")
        op, = [op for op in module.find_function("k").walk()
               if op.name == "tensor.reduce"]
        for kind in REDUCE:
            op.set_attr("kind", kind)
            verify(module)
        op.set_attr("kind", "prod")
        with pytest.raises(VerificationError,
                           match="kind must be sum/mean/max/min"):
            verify(module)


def _scalar_module(row, values):
    """``f() -> T`` applying one scalar op to constants."""
    def type_of(value):
        if isinstance(value, bool):
            return I1
        return I32 if isinstance(value, int) else F32

    result = I1 if row.name.startswith("cmp") else type_of(values[-1])
    module = Module("m")
    function = module.add_function("f", FunctionType((), (result,)))
    builder = Builder(function.entry_block)
    operands = [builder.const(value, type_of(value)) for value in values]
    op = builder.create(f"kernel.{row.name}", operands=operands,
                        result_types=[result])
    builder.ret([op.result])
    verify(module)
    return module


def _samples(row):
    if row.arity == 3:
        return [(True, 1.5, -2.0), (False, 1.5, -2.0)]
    if row.name.endswith("i"):
        return [(7, 2), (-7, 2), (7, -2)]
    if row.arity == 2:
        return [(3.0, 2.0), (-7.5, 2.0), (2.0, 2.0), (-1.0, 0.0),
                (0.0, 0.0)]
    return [(0.25,), (-1.5,), (4.0,), (800.0,)]


class TestScalarRows:
    def test_every_row_is_pinned(self):
        assert [row.name for row in SCALAR_OPS] == list(SCALAR_PINNED)

    @pytest.mark.parametrize("row", SCALAR_OPS, ids=lambda row: row.name)
    def test_row_facts(self, row):
        weight, latency, resource, commutative = SCALAR_PINNED[row.name]
        name = f"kernel.{row.name}"
        assert row.weight == weight
        assert OP_LATENCY[name] == latency
        assert RESOURCE_CLASS.get(name) == resource
        assert row.commutative == commutative
        opdef = lookup_op(name)
        assert opdef.min_operands == opdef.max_operands == row.arity
        assert opdef.has_trait(TRAIT_COMMUTATIVE) == commutative

    @pytest.mark.parametrize("row", SCALAR_OPS, ids=lambda row: row.name)
    def test_folding_is_interpreting(self, row):
        for values in _samples(row):
            interpreted, = run_function(_scalar_module(row, values), "f")
            folded = _scalar_module(row, values)
            changed = ConstantFoldPass().run(folded)
            assert changed == (f"kernel.{row.name}" in _FOLDED)
            constant, = run_function(folded, "f")
            if changed:
                assert [op.name for op in
                        folded.find_function("f").walk()][-2:] == [
                            "kernel.const", "func.return"]
            assert type(constant) is type(interpreted)
            assert constant == interpreted or (
                math.isnan(constant) and math.isnan(interpreted))

    def test_the_folded_set_is_the_thirteen_it_was(self):
        assert _FOLDED == {f"kernel.{name}" for name in (
            "addf", "subf", "mulf", "divf", "addi", "subi", "muli",
            "maxf", "minf", "negf", "expf", "sqrtf", "absf")}
        assert _FOLDED <= set(SCALAR)


class TestCoverage:
    """The tables that stay outside answer to the rows."""

    def test_every_executable_op_has_a_latency_row(self):
        registered = {
            f"{dialect}.{name}" for dialect in ("kernel", "secure")
            for name in get_dialect(dialect).ops
        }
        structural = {"kernel.for", "kernel.yield"}
        assert set(OP_LATENCY) == registered - structural
        assert set(RESOURCE_CLASS) <= set(OP_LATENCY)
        assert OP_LATENCY["secure.monitor"] == 1
        assert OP_LATENCY["kernel.call"] == 1

    def test_integer_and_compare_ops_sit_in_one_allocation_class(self):
        integer = {name for name, row in SCALAR.items()
                   if row.name.endswith("i")}
        compare = {name for name, row in SCALAR.items()
                   if row.name.startswith("cmp")} | {"kernel.select"}
        assert set(allocation._INT_OPS) == integer
        assert set(allocation._CMP_OPS) == compare
        assert not (integer | compare) & set(RESOURCE_CLASS)
        for name in SCALAR:
            classes = [name in allocation._INT_OPS,
                       name in allocation._CMP_OPS,
                       name in RESOURCE_CLASS]
            assert sum(classes) <= 1, name

    def test_absint_transfer_functions_cover_the_integer_rows(self):
        assert set(absint._BINARY_INT) == {
            name for name, row in SCALAR.items() if row.name.endswith("i")}
        assert set(absint._COMPARE) == {
            name for name, row in SCALAR.items()
            if row.name.startswith("cmp")}
        assert set(absint._MIN_COMPARES + absint._MAX_COMPARES) <= set(
            absint._COMPARE)

    def test_frontend_activations_are_unary_builtins(self):
        unary = {name for name, row in BUILTINS.items() if row.arity == 1}
        assert _ACTIVATIONS - {"none"} <= unary

    def test_lowering_targets_are_rows(self):
        for row in TENSOR_OPS:
            for target in (row.float_op, row.int_op):
                assert target is None or f"kernel.{target}" in SCALAR
        assert set(TENSOR) == {
            f"tensor.{row.name}" for row in TENSOR_OPS}

    def test_the_tutorial_lists_every_spelling(self):
        tutorial = (Path(__file__).resolve().parents[2]
                    / "docs" / "TUTORIAL.md").read_text()
        paragraph = tutorial[tutorial.index("Supported:"):].split("\n\n")[0]
        listed = {token for span in re.findall(r"`([^`]+)`", paragraph)
                  for token in span.split()}
        spellings = set(BUILTINS) | {symbol for symbol, _ in OPERATORS}
        assert spellings | set(REDUCE_BUILTINS) <= listed
