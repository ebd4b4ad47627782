"""Tests for SSA structures, modules, builder and verifier."""

import pytest

from repro.core.ir import (
    F32,
    FunctionType,
    MemRefType,
    Module,
    Operation,
    print_module,
    verify,
)
from repro.core.ir.builder import Builder
from repro.errors import IRError, VerificationError


def make_saxpy(n: int = 8) -> Module:
    module = Module("m")
    memref = MemRefType((n,), F32)
    function = module.add_function(
        "saxpy", FunctionType((memref, memref, F32), ())
    )
    builder = Builder(function.entry_block)
    loop = builder.for_loop(0, n)
    with builder.at_block(loop.body):
        iv = loop.induction_var
        x = builder.load(function.arguments[0], [iv])
        y = builder.load(function.arguments[1], [iv])
        builder.store(
            builder.addf(builder.mulf(function.arguments[2], x), y),
            function.arguments[1], [iv],
        )
        builder.yield_op()
    builder.ret()
    return module


class TestOperations:
    def test_unqualified_name_rejected(self):
        with pytest.raises(IRError):
            Operation("unqualified")

    def test_use_def_chains_maintained(self):
        module = make_saxpy()
        function = module.find_function("saxpy")
        argument = function.arguments[0]
        assert len(argument.uses) == 1  # one load

    def test_replace_all_uses(self):
        module = make_saxpy()
        function = module.find_function("saxpy")
        x, y = function.arguments[0], function.arguments[1]
        x.replace_all_uses_with(y)
        assert not x.uses
        verify(module)  # still structurally valid

    def test_erase_with_uses_rejected(self):
        module = make_saxpy()
        function = module.find_function("saxpy")
        load = next(
            op for op in function.walk() if op.name == "kernel.load"
        )
        with pytest.raises(IRError, match="still has"):
            load.erase()

    def test_clone_is_deep_and_independent(self):
        module = make_saxpy()
        clone = module.clone()
        verify(clone)
        original_count = sum(1 for _ in module.walk())
        clone_count = sum(1 for _ in clone.walk())
        assert original_count == clone_count
        clone.find_function("saxpy").op.set_attr("tag", 1)
        assert module.find_function("saxpy").op.attr("tag") is None

    def test_walk_visits_nested(self):
        module = make_saxpy()
        names = [op.name for op in module.walk()]
        assert "kernel.for" in names
        assert "kernel.load" in names


class TestModule:
    def test_duplicate_function_rejected(self):
        module = Module("m")
        module.add_function("f", FunctionType((), ()))
        with pytest.raises(IRError):
            module.add_function("f", FunctionType((), ()))

    def test_find_and_remove(self):
        module = Module("m")
        module.add_function("f", FunctionType((), ()))
        assert module.find_function("f") is not None
        module.remove_function("f")
        assert module.find_function("f") is None

    def test_remove_unknown_rejected(self):
        module = Module("m")
        with pytest.raises(IRError):
            module.remove_function("ghost")


class TestVerifier:
    def test_valid_module_passes(self):
        verify(make_saxpy())

    def test_use_before_def_detected(self):
        module = Module("m")
        function = module.add_function("f", FunctionType((F32,), ()))
        builder = Builder(function.entry_block)
        # build a valid op, then move it before its operand's definition
        c = builder.const(1.0)
        result = builder.addf(function.arguments[0], c)
        builder.ret()
        block = function.entry_block
        add_op = result.producer
        block.operations.remove(add_op)
        block.operations.insert(0, add_op)
        with pytest.raises(VerificationError, match="not visible"):
            verify(module)

    def test_missing_terminator_detected(self):
        module = Module("m")
        function = module.add_function("f", FunctionType((), ()))
        builder = Builder(function.entry_block)
        builder.const(1.0)  # no func.return
        with pytest.raises(VerificationError, match="func.return"):
            verify(module)

    def test_terminator_not_last_detected(self):
        module = Module("m")
        function = module.add_function("f", FunctionType((), ()))
        builder = Builder(function.entry_block)
        builder.ret()
        builder.const(1.0)
        with pytest.raises(VerificationError):
            verify(module)

    def test_wrong_return_type_detected(self):
        module = Module("m")
        function = module.add_function("f", FunctionType((), (F32,)))
        builder = Builder(function.entry_block)
        builder.ret()  # returns nothing but signature wants f32
        with pytest.raises(VerificationError):
            verify(module)

    def test_unregistered_op_detected(self):
        module = Module("m")
        function = module.add_function("f", FunctionType((), ()))
        function.entry_block.append(Operation("bogus.op"))
        function.entry_block.append(Operation("func.return"))
        with pytest.raises(VerificationError, match="unknown dialect"):
            verify(module)


class TestPrinter:
    def test_round_structure(self):
        text = print_module(make_saxpy())
        assert "builtin.module" in text
        assert "func.func @saxpy" in text
        assert "kernel.for" in text
        assert "kernel.yield" in text

    def test_attributes_rendered_sorted(self):
        text = print_module(make_saxpy())
        assert "lower = 0" in text
        assert text.index("lower = 0") < text.index("upper = 8")
