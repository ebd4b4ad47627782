"""Tests for memory planning, allocation and crypto/taint models."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.hls.allocation import allocate
from repro.core.hls.bambu import synthesize
from repro.core.hls.cdfg import build_cdfg
from repro.core.hls.crypto import (
    CRYPTO_LIBRARY,
    core_for,
)
from repro.core.hls.memory import (
    cyclic_conflict_free,
    plan_memories,
)
from repro.core.hls.scheduling import schedule_loop
from repro.core.hls.taint import apply_taint_tracking
from repro.core.ir import parse_module
from repro.core.ir.passes import (
    LoopDirectivesPass,
    LowerTensorPass,
    PassManager,
)
from repro.errors import HLSError, SecurityError
from repro.platform.resources import FPGAResources
from tests.conftest import examples

MISSING_FACTOR = os.path.join(
    os.path.dirname(__file__), os.pardir, "analysis", "fixtures",
    "partition_missing_factor.ir",
)

STREAM = """
kernel stream(A: tensor<1024xf32>, B: tensor<1024xf32>)
        -> tensor<1024xf32> {
  C = A * B + A
  return C
}
"""


def make_cdfg(src=STREAM, name="stream", unroll=1):
    module = compile_kernel(src)
    manager = PassManager()
    manager.add(LowerTensorPass())
    manager.add(LoopDirectivesPass(unroll_factor=unroll))
    manager.run(module)
    return build_cdfg(module.find_function(name))


class TestCyclicConflictFree:
    def test_unit_stride_pow2_banks(self):
        # unrolled copies access addresses base+k; distinct mod banks
        assert cyclic_conflict_free([0], stride=1, unroll=4, banks=4)

    def test_conflicting_offsets(self):
        assert not cyclic_conflict_free([0, 4], stride=1, unroll=1,
                                        banks=4)

    def test_distinct_offsets_ok(self):
        assert cyclic_conflict_free([0, 1, 2], stride=4, unroll=1,
                                    banks=4)

    @settings(max_examples=examples())
    @given(st.integers(1, 8))
    def test_property_single_access_always_free(self, banks):
        assert cyclic_conflict_free([0], stride=1, unroll=1, banks=banks)


class TestMemoryPlanning:
    def test_small_local_buffers_complete_partition(self):
        src = """
        kernel tiny(A: tensor<16xf32>) -> tensor<16xf32> {
          B = A + A
          C = relu(B)
          return C
        }
        """
        cdfg = make_cdfg(src, "tiny")
        plan = plan_memories(cdfg)
        schemes = {
            plan.buffers[key].value.producer.name
            if plan.buffers[key].value.producer else "arg":
            plan.buffers[key].scheme
            for key in plan.buffers
        }
        # the local intermediate becomes registers; interface buffers
        # stay addressable memories
        assert schemes.get("kernel.alloc") == "complete"
        assert schemes.get("arg") in ("cyclic", "block")
        assert plan.total_register_bits > 0

    def test_large_buffers_use_bram(self):
        cdfg = make_cdfg()
        plan = plan_memories(cdfg)
        assert plan.total_bram_blocks > 0

    def test_unroll_increases_banks(self):
        narrow = plan_memories(make_cdfg(unroll=1), unroll=1)
        wide = plan_memories(make_cdfg(unroll=8), unroll=8)
        assert sum(p.factor for p in wide.buffers.values()) > \
            sum(p.factor for p in narrow.buffers.values())

    def test_none_strategy_single_bank(self):
        plan = plan_memories(make_cdfg(unroll=8), unroll=8,
                             strategy="none")
        assert all(p.factor == 1 for p in plan.buffers.values())

    def test_unknown_strategy_rejected(self):
        with pytest.raises(HLSError):
            plan_memories(make_cdfg(), strategy="hexagonal")

    def test_ports_map_feeds_scheduler(self):
        cdfg = make_cdfg(unroll=4)
        plan = plan_memories(cdfg, unroll=4)
        ports = plan.ports_map()
        loop = cdfg.innermost_loops()[0]
        schedule = schedule_loop(loop, memory_ports=ports)
        assert schedule.ii >= 1

    def test_explicit_directive_honored(self):
        from repro.core.ir.ops import Operation

        cdfg = make_cdfg()
        function = cdfg.function
        buffer = function.arguments[0]
        directive = Operation(
            "hw.partition",
            operands=[buffer],
            attributes={"scheme": "block", "factor": 16},
        )
        first = function.entry_block.operations[0]
        function.entry_block.insert_before(first, directive)
        cdfg2 = build_cdfg(function)
        plan = plan_memories(cdfg2)
        assert plan.plan_for(buffer).scheme == "block"
        assert plan.plan_for(buffer).factor == 16

    def test_directive_without_factor_reads_as_factor_one(self):
        # Every layer reads hw.partition through one reader, so the
        # planner agrees with lint and the analyzer (factor 1) instead
        # of dying on int(None); rejecting the directive is the
        # verifier's job (IR002).
        with open(MISSING_FACTOR, "r", encoding="utf-8") as handle:
            text = handle.read()
        implicit = synthesize(parse_module(text), "k")
        explicit = synthesize(parse_module(text.replace(
            '{scheme = "cyclic"}', '{factor = 1, scheme = "cyclic"}'
        )), "k")
        plan = implicit.memory_plan.plan_for(
            implicit.cdfg.function.arguments[0])
        assert (plan.scheme, plan.factor) == ("cyclic", 1)
        assert implicit.latency_cycles == explicit.latency_cycles
        assert implicit.resources == explicit.resources


class TestAllocation:
    def test_resources_positive(self):
        cdfg = make_cdfg()
        plan = plan_memories(cdfg)
        schedules = {
            id(loop): schedule_loop(loop, memory_ports=plan.ports_map())
            for loop in cdfg.innermost_loops()
        }
        allocation = allocate(cdfg, schedules, plan)
        assert allocation.resources.luts > 0
        assert allocation.resources.ffs > 0

    def test_unroll_grows_units(self):
        def units(unroll):
            cdfg = make_cdfg(unroll=unroll)
            plan = plan_memories(cdfg, unroll=unroll)
            schedules = {
                id(loop): schedule_loop(
                    loop, memory_ports=plan.ports_map())
                for loop in cdfg.innermost_loops()
            }
            allocation = allocate(cdfg, schedules, plan)
            return sum(allocation.unit_counts.values())

        assert units(8) > units(1)

    def test_binding_assigns_every_constrained_op(self):
        cdfg = make_cdfg()
        plan = plan_memories(cdfg)
        schedules = {
            id(loop): schedule_loop(loop, memory_ports=plan.ports_map())
            for loop in cdfg.innermost_loops()
        }
        allocation = allocate(cdfg, schedules, plan)
        bound = sum(
            len(binding.assignments)
            for binding in allocation.bindings
        )
        assert bound > 0
        for binding in allocation.bindings:
            instances = max(1, binding.instances)
            assert all(
                0 <= unit < instances
                for unit in binding.assignments.values()
            )


class TestCrypto:
    def test_known_ciphers_present(self):
        for cipher in ("aes128-gcm", "aes256-gcm", "ascon128"):
            assert cipher in CRYPTO_LIBRARY

    def test_unknown_cipher_raises(self):
        with pytest.raises(SecurityError):
            core_for("rot13")

    def test_cycles_scale_with_bytes(self):
        core = core_for("aes128-gcm")
        assert core.cycles_for(4096) > core.cycles_for(64)
        assert core.cycles_for(0) == 0


class TestTaint:
    def test_overhead_single_digit_percent(self):
        cdfg = make_cdfg()
        plan = plan_memories(cdfg)
        report = apply_taint_tracking(
            {"fadd": 4, "fmul": 4}, inflight_values=20,
            memory_plan=plan, labels=["arg0"],
        )
        base = FPGAResources(luts=20_000, ffs=25_000)
        assert 0 < report.area_overhead_fraction(base) < 0.10

    def test_more_labels_more_area(self):
        cdfg = make_cdfg()
        plan = plan_memories(cdfg)
        one = apply_taint_tracking({"fadd": 2}, 10, plan, ["a"])
        three = apply_taint_tracking({"fadd": 2}, 10, plan,
                                     ["a", "b", "c"])
        assert three.extra.luts > one.extra.luts

    def test_latency_cost_is_one_cycle(self):
        cdfg = make_cdfg()
        plan = plan_memories(cdfg)
        report = apply_taint_tracking({}, 1, plan, ["a"])
        assert report.extra_latency_cycles == 1
