"""Tests for the IR type system."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ir.types import (
    F32,
    F64,
    I32,
    INDEX,
    FunctionType,
    MemRefType,
    ScalarType,
    StreamType,
    TensorType,
)
from repro.errors import IRError
from tests.conftest import examples

dims = st.lists(st.integers(min_value=1, max_value=64),
                min_size=1, max_size=4)


class TestScalarType:
    def test_float_classification(self):
        assert F32.is_float and F64.is_float
        assert not I32.is_float and not INDEX.is_float

    def test_unknown_name_rejected(self):
        with pytest.raises(IRError):
            ScalarType("f16")

    def test_bit_widths(self):
        assert F32.bit_width == 32
        assert F64.byte_width == 8
        assert ScalarType("i1").byte_width == 1

    def test_equality_is_structural(self):
        assert ScalarType("f32") == F32

    def test_str(self):
        assert str(INDEX) == "index"


class TestTensorType:
    def test_num_elements_and_bytes(self):
        t = TensorType((4, 8), F32)
        assert t.num_elements == 32
        assert t.size_bytes == 128
        assert t.rank == 2

    def test_zero_dim_rejected(self):
        with pytest.raises(IRError):
            TensorType((0, 4), F32)

    def test_str(self):
        assert str(TensorType((2, 3), F32)) == "tensor<2x3xf32>"

    @settings(max_examples=examples())
    @given(dims)
    def test_property_num_elements_is_product(self, shape):
        t = TensorType(tuple(shape), F32)
        product = 1
        for dim in shape:
            product *= dim
        assert t.num_elements == product


class TestMemRefType:
    def test_layout_variants(self):
        m = MemRefType((8,), F32, layout="aos")
        assert m.with_layout("soa").layout == "soa"
        assert m.layout == "aos"  # original untouched

    def test_unknown_layout_rejected(self):
        with pytest.raises(IRError):
            MemRefType((8,), F32, layout="diagonal")

    def test_str_includes_modifiers(self):
        m = MemRefType((8,), F32, space="bram", layout="soa")
        assert "bram" in str(m) and "soa" in str(m)


class TestOtherTypes:
    def test_stream_depth_validation(self):
        with pytest.raises(IRError):
            StreamType(F32, depth=-1)

    def test_stream_str(self):
        assert str(StreamType(F32, 4)) == "stream<f32, 4>"

    def test_function_type_str(self):
        ft = FunctionType((F32,), (F32, F32))
        assert str(ft) == "(f32) -> (f32, f32)"
