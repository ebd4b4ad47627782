"""The accelerator timing terms, each tested where it is stated.

:mod:`repro.core.timing` is called by the memory planner, the
scheduler, the performance analyzer, the partition lints and
``repro perf``; these tables pin the leaf arithmetic itself, and the
last class pins the one input on which the callers still disagree.
"""

import pytest

from repro.core.analysis import analyze_module
from repro.core.analysis.perf import compute_kernel_bounds_from_function
from repro.core.hls.bambu import synthesize
from repro.core.ir import parse_module
from repro.core.timing import (
    COMPLETE_PARTITION_LIMIT,
    MAX_BANKING_FACTOR,
    PORTS_PER_BANK,
    body_copies,
    initiation_interval,
    partition_for,
    pipelined_cycles,
    port_demand,
    ports_granted,
)


class TestPartitionDecision:
    @pytest.mark.parametrize(
        "directive, strategy, small_alloc, elements, demanded, expected",
        [
            # an explicit directive wins over everything else
            (("block", 16), "none", True, 8, 100, ("block", 16)),
            (("complete", 1), "auto", False, 1024, 4, ("complete", 1)),
            # strategy none: one bank, even for small scratch
            (None, "none", True, 8, 100, ("cyclic", 1)),
            # small local scratch becomes registers
            (None, "auto", True, 8, 100, ("complete", 8)),
            (None, "block", True, 64, 1, ("complete", 64)),
            # otherwise banks double until their ports cover demand
            (None, "auto", False, 1024, 0, ("auto", 1)),
            (None, "auto", False, 1024, 2, ("auto", 1)),
            (None, "auto", False, 1024, 3, ("auto", 2)),
            (None, "cyclic", False, 1024, 6, ("cyclic", 4)),
            (None, "block", False, 1024, 16, ("block", 8)),
            (None, "block", False, 1024, 17, ("block", 16)),
        ],
    )
    def test_scheme_and_factor(self, directive, strategy, small_alloc,
                               elements, demanded, expected):
        assert partition_for(
            directive, strategy, small_alloc, elements, demanded
        ) == expected

    def test_doubling_stops_at_the_cap(self):
        assert MAX_BANKING_FACTOR == 64
        at_cap = MAX_BANKING_FACTOR * PORTS_PER_BANK
        for demanded in (at_cap, at_cap + 1, 10 * at_cap):
            assert partition_for(
                None, "cyclic", False, 4096, demanded
            ) == ("cyclic", MAX_BANKING_FACTOR)

    def test_register_limit(self):
        assert COMPLETE_PARTITION_LIMIT == 64


class TestPortGrant:
    @pytest.mark.parametrize(
        "scheme, factor, elements, ports",
        [
            ("cyclic", 1, 1024, 2),
            ("block", 4, 1024, 8),
            ("cyclic", 64, 4096, 128),
            # a factor below one still is one bank
            ("cyclic", 0, 16, 2),
            # registers serve every element at once
            ("complete", 1, 16, 16),
            ("complete", 16, 16, 16),
        ],
    )
    def test_ports(self, scheme, factor, elements, ports):
        assert ports_granted(scheme, factor, elements) == ports


class TestCopiesAndDemand:
    @pytest.mark.parametrize(
        "unroll, trip, copies",
        [(1, 16, 1), (4, 16, 4), (16, 4, 4), (8, 2, 2),
         (0, 16, 1), (-3, 16, 1), (8, 0, 1), (8, -1, 1)],
    )
    def test_copies_clamp_to_the_trip_count(self, unroll, trip, copies):
        assert body_copies(unroll, trip) == copies

    def test_demand_is_accesses_times_copies(self):
        assert port_demand(3, 4) == 12
        assert port_demand(0, 8) == 0


class TestInitiationInterval:
    @pytest.mark.parametrize(
        "target, units, ports, chain, interleave, expected",
        [
            # nothing presses: the target II stands
            (1, [], [], 0, 1, (1, "target", "")),
            (3, [("fadd", 4, 4)], [("A", 2, 2)], 3, 1, (3, "target", "")),
            (0, [], [], 0, 1, (1, "target", "")),
            # the recurrence chain, shortened by interleaving
            (1, [], [("A", 2, 2)], 7, 1, (7, "chain", "")),
            (1, [], [], 7, 2, (4, "chain", "")),
            (1, [], [], 7, 8, (1, "target", "")),
            # a functional-unit class
            (1, [("fadd", 4, 4), ("fmul", 9, 4)], [], 2, 1,
             (3, "unit", "fmul")),
            # a buffer's ports; the first of equal terms is named
            (1, [], [("A", 4, 2), ("B", 16, 4), ("C", 8, 2)], 0, 1,
             (4, "port", "B")),
            (2, [("fadd", 8, 4)], [("A", 5, 2)], 2, 1, (3, "port", "A")),
            # ties go to the earlier kind: chain before unit before port
            (1, [("fadd", 16, 4)], [("A", 8, 2)], 4, 1, (4, "chain", "")),
            (1, [("fadd", 16, 4)], [("A", 8, 2)], 0, 1,
             (4, "unit", "fadd")),
        ],
    )
    def test_ii_and_binding_term(self, target, units, ports, chain,
                                 interleave, expected):
        assert initiation_interval(
            target, units, ports, chain, interleave) == expected

    def test_more_terms_never_lower_the_ii(self):
        # the analyzer passes a subset of the scheduler's terms
        units = [("fadd", 8, 4), ("fmul", 20, 4)]
        ports = [("A", 6, 2), ("B", 2, 2)]
        full = initiation_interval(2, units, ports, 6, 2)[0]
        for subset in (
            initiation_interval(1, (), ports, 6, 2),
            initiation_interval(1, (), ports[1:], 6, 2),
            initiation_interval(1, (), (), 0, 1),
        ):
            assert subset[0] <= full


class TestPipelinedCycles:
    @pytest.mark.parametrize(
        "trips, copies, depth, ii, cycles",
        [
            (0, 1, 9, 3, 0),
            (-4, 2, 9, 3, 0),
            (1, 1, 9, 3, 9),
            (100, 1, 9, 1, 108),
            (100, 1, 9, 3, 306),
            (100, 4, 9, 3, 81),
            (10, 4, 1, 2, 5),  # ceil(10 / 4) = 3 initiations
            (2, 8, 5, 4, 5),
        ],
    )
    def test_fill_then_one_body_per_ii(self, trips, copies, depth, ii,
                                       cycles):
        assert pipelined_cycles(trips, copies, depth, ii) == cycles


TRIP_BELOW_UNROLL = """
builtin.module @trip_below_unroll {
  func.func @k (%0: memref<16xf32>) -> () {
    hw.partition(%0) {factor = 2, scheme = "cyclic"}
    kernel.for {lower = 0, pipeline_ii = 1, step = 1, unroll = 8, upper = 2} {
      ^bb0(%1: index):
        %2 = kernel.load(%0, %1) : f32
        kernel.store(%2, %0, %1)
        kernel.yield
    }
    func.return
  }
}
"""


class TestTripClampDisagreement:
    """``copies`` when ``trip < unroll``: today's behaviour, pinned.

    A trip-2 loop unrolled 8x has 2 accesses on a buffer with 4 ports.
    The scheduler and MEM002 charge the raw directive (8 copies, 16
    ports demanded); the analyzers clamp to the trip count (2 copies,
    4 ports). Both call :func:`port_demand`, with different ``copies``.
    Harmonising them moves priced fronts: ROADMAP item 3(d), the
    trip clamp. Until then this must not drift silently.
    """

    def test_scheduler_charges_the_raw_directive(self):
        design = synthesize(parse_module(TRIP_BELOW_UNROLL), "k")
        (schedule,) = design.schedules.values()
        assert schedule.ii == 4  # ceil(2 * 8 / 4)

    def test_analyzer_clamps_to_the_trip_count(self):
        function = parse_module(TRIP_BELOW_UNROLL).find_function("k")
        bounds = compute_kernel_bounds_from_function(function)
        (nest,) = bounds.nests
        ports = {info.buffer: info.ports("auto", 8)
                 for info in bounds.buffers}
        assert ports == {"0": 4}
        assert nest.ii_floor(8, ports)[0] == 1  # ceil(2 * min(8, 2) / 4)

    def test_mem002_fires_and_perf001_does_not(self):
        codes = [
            diagnostic.code for diagnostic in
            analyze_module(parse_module(TRIP_BELOW_UNROLL))
        ]
        assert "MEM002" in codes
        assert "PERF001" not in codes
