"""Tests for the generic dataflow fixpoint engine."""

from repro.core.analysis.dataflow import (
    FlagLattice,
    Liveness,
    SetLattice,
    TaintPropagation,
)
from repro.core.ir.types import F32, MemRefType

from tests.analysis.conftest import new_function


class TestLattices:
    def test_set_lattice(self):
        lattice = SetLattice()
        assert lattice.bottom() == frozenset()
        joined = lattice.join(frozenset({"a"}), frozenset({"b"}))
        assert joined == frozenset({"a", "b"})
        assert lattice.join(frozenset({"a"}), joined) == joined
        assert lattice.join(joined, frozenset({"a"})) != frozenset({"a"})

    def test_flag_lattice(self):
        lattice = FlagLattice()
        assert lattice.bottom() is False
        assert lattice.join(False, True) is True
        assert lattice.join(True, False) is True


class TestTaintPropagation:
    def test_labels_flow_through_arithmetic(self, module):
        function, b = new_function(module, "f", [F32, F32], [F32])
        x, y = function.arguments
        tainted = b.create(
            "secure.taint", [x], [F32], {"label": "pii"}
        ).result
        total = b.addf(tainted, y)
        b.ret([total])

        state = TaintPropagation().run(function)
        assert state.get(total) == frozenset({"pii"})
        assert state.get(y) == frozenset()

    def test_declassify_clears(self, module):
        function, b = new_function(module, "f", [F32], [F32])
        (x,) = function.arguments
        tainted = b.create(
            "secure.taint", [x], [F32], {"label": "pii"}
        ).result
        cleared = b.create("secure.declassify", [tainted], [F32]).result
        b.ret([cleared])

        state = TaintPropagation().run(function)
        assert state.get(cleared) == frozenset()

    def test_seed_from_arguments(self, module):
        function, b = new_function(module, "f", [F32], [F32])
        (x,) = function.arguments
        doubled = b.addf(x, x)
        b.ret([doubled])

        analysis = TaintPropagation(
            seed={id(x): frozenset({"arg0"})}
        )
        state = analysis.run(function)
        assert state.get(doubled) == frozenset({"arg0"})

    def test_taint_survives_memory_roundtrip(self, module):
        memref = MemRefType((4,), F32)
        function, b = new_function(module, "f", [F32], [F32])
        (x,) = function.arguments
        tainted = b.create(
            "secure.taint", [x], [F32], {"label": "pii"}
        ).result
        buffer = b.alloc(memref)
        zero = b.index_const(0)
        b.store(tainted, buffer, [zero])
        reloaded = b.load(buffer, [zero])
        b.ret([reloaded])

        state = TaintPropagation().run(function)
        assert "pii" in state.get(reloaded)


class TestLiveness:
    def test_returned_chain_is_live(self, module):
        function, b = new_function(module, "f", [F32], [F32])
        (x,) = function.arguments
        doubled = b.addf(x, x)
        b.ret([doubled])

        state = Liveness().run(function)
        assert state.get(doubled) is True
        assert state.get(x) is True

    def test_unused_value_is_dead(self, module):
        function, b = new_function(module, "f", [F32], [F32])
        (x,) = function.arguments
        dead = b.mulf(x, x)
        b.ret([x])

        state = Liveness().run(function)
        assert state.get(dead) is False

    def test_store_roots_its_operands(self, module):
        memref = MemRefType((4,), F32)
        function, b = new_function(module, "f", [F32], [])
        (x,) = function.arguments
        buffer = b.alloc(memref)
        index = b.index_const(1)
        stored = b.addf(x, x)
        b.store(stored, buffer, [index])
        b.ret([])

        state = Liveness().run(function)
        assert state.get(stored) is True
        assert state.get(index) is True

    def test_loop_body_values_live(self, module):
        memref = MemRefType((8,), F32)
        function, b = new_function(module, "f", [], [])
        buffer = b.alloc(memref)
        loop = b.for_loop(0, 8)
        with b.at_block(loop.body):
            value = b.const(1.0)
            b.store(value, buffer, [loop.induction_var])
            b.yield_op()
        b.ret([])

        state = Liveness().run(function)
        values = {
            op.name: op for op in function.walk()
        }
        const_op = values["kernel.const"]
        assert state.get(const_op.results[0]) is True
