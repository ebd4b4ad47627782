"""Heap scheduler equivalence against the O(n²) reference sweep.

The heap-based list scheduler must produce *byte-identical* start
cycles to the classical formulation it replaced: repeatedly sweep the
``(mobility, program index)``-sorted unscheduled list, schedule every
ready node at the first cycle its resource fits (probing cycles one by
one), until the list drains. ``_reference_list_schedule`` below is that
pre-replacement implementation, kept verbatim as the executable spec;
the property suite pins the production scheduler to it on seeded
random DFGs, and an end-to-end test grounds the comparison in real
CDFGs lowered from kernel sources.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dse.cost_model import prepare_variant_module
from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.hls import scheduling
from repro.core.hls.bambu import hls_options_for
from repro.core.hls.cdfg import build_cdfg
from repro.core.hls.memory import plan_memories
from repro.core.hls.scheduling import ResourceBudget, latency_of
from repro.core.variants import VariantKnobs
from repro.errors import SchedulingError
from tests.conftest import GEMM_SRC, examples, hotpath_kernel

# -- the pre-replacement reference implementation ----------------------


def _reference_list_schedule(body, budget, memory_ports, unroll):
    """Verbatim O(n²·cycles) sweep scheduler this PR replaced."""
    asap = scheduling._asap(body)
    alap = scheduling._alap(
        body, max(asap[id(n)] + latency_of(n) for n in body)
    )
    mobility = {id(n): alap[id(n)] - asap[id(n)] for n in body}

    start = {}
    unscheduled = sorted(
        body, key=lambda node: (mobility[id(node)], node.index)
    )
    usage = {}

    def fits(node, cycle):
        key = scheduling._resource_key(node)
        if key is None:
            return True
        if key.startswith("memport:"):
            limit = scheduling._ports_for(node, budget, memory_ports)
        else:
            limit = budget.limit(key)
        return usage.get(cycle, {}).get(key, 0) + unroll <= limit

    guard = 0
    while unscheduled:
        guard += 1
        if guard > 100_000:
            raise SchedulingError("list scheduling did not converge")
        progressed = False
        for node in list(unscheduled):
            ready_at = 0
            ready = True
            for predecessor in node.predecessors:
                if id(predecessor) not in start:
                    ready = False
                    break
                ready_at = max(
                    ready_at,
                    start[id(predecessor)] + latency_of(predecessor),
                )
            if not ready:
                continue
            cycle = ready_at
            while not fits(node, cycle):
                cycle += 1
                if cycle > 100_000:
                    raise SchedulingError(
                        f"cannot place {node.op.name}: resource "
                        f"limits too tight"
                    )
            start[id(node)] = cycle
            key = scheduling._resource_key(node)
            if key is not None:
                cycle_usage = usage.setdefault(cycle, {})
                cycle_usage[key] = cycle_usage.get(key, 0) + unroll
            unscheduled.remove(node)
            progressed = True
        if not progressed:
            raise SchedulingError("dependence cycle in loop body")
    return start


# -- seeded random DFGs ------------------------------------------------


class _FakeOp:
    def __init__(self, name):
        self.name = name
        self.operands = []


class _FakeNode:
    """Duck-typed DFGNode: op name, program index, edges, buffer."""

    def __init__(self, name, index, buffer=None):
        self.op = _FakeOp(name)
        self.index = index
        self.predecessors = []
        self.successors = []
        self._buffer = buffer

    def buffer(self):
        return self._buffer


OP_NAMES = [
    "kernel.addf", "kernel.mulf", "kernel.divf", "kernel.expf",
    "kernel.tanhf", "kernel.load", "kernel.store", "kernel.addi",
    "kernel.select", "secure.encrypt",
]


class _Buffer:
    """Stand-in for a buffer Value (identity plus a name)."""

    def __init__(self, index):
        self.name = f"buf{index}"


def random_dfg(seed):
    """A random DAG in topological program order, plus budgets."""
    rng = random.Random(seed)
    count = rng.randint(1, 50)
    buffers = [_Buffer(i) for i in range(rng.randint(1, 3))]
    body = []
    for index in range(count):
        name = rng.choice(OP_NAMES)
        buffer = (
            rng.choice(buffers)
            if name in ("kernel.load", "kernel.store") else None
        )
        node = _FakeNode(name, index, buffer)
        for _ in range(rng.randint(0, min(3, index))):
            predecessor = body[rng.randrange(index)]
            if predecessor not in node.predecessors:
                node.predecessors.append(predecessor)
                predecessor.successors.append(node)
        body.append(node)
    budget = ResourceBudget(
        fadd=rng.randint(1, 4), fmul=rng.randint(1, 4),
        fdiv=rng.randint(1, 2), special=rng.randint(1, 4),
        memport=rng.randint(1, 2),
    )
    memory_ports = {
        id(buffer): rng.randint(1, 3)
        for buffer in buffers if rng.random() < 0.5
    }
    unroll = rng.choice([1, 1, 1, 2])
    return body, budget, memory_ports, unroll


class TestHeapMatchesReference:
    @settings(max_examples=examples(150), deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_start_cycles_byte_identical(self, seed):
        body, budget, memory_ports, unroll = random_dfg(seed)
        try:
            expected = _reference_list_schedule(
                body, budget, memory_ports, unroll
            )
        except SchedulingError:
            # The reference exhausts its probe guard when a node's
            # unrolled demand exceeds the per-cycle limit; the new
            # scheduler must reject the same inputs (just sooner,
            # naming the resource).
            with pytest.raises(SchedulingError):
                scheduling._list_schedule(
                    body, budget, memory_ports, unroll
                )
            return
        actual = scheduling._list_schedule(
            body, budget, memory_ports, unroll
        )
        assert actual == expected

    def test_contended_serial_chain(self):
        """Dense single-resource pressure: every load fights for one
        port; placements must pack one per cycle in priority order."""
        buffer = _Buffer(0)
        body = [
            _FakeNode("kernel.load", i, buffer) for i in range(40)
        ]
        budget = ResourceBudget(memport=1)
        expected = _reference_list_schedule(body, budget, None, 1)
        actual = scheduling._list_schedule(body, budget, None, 1)
        assert actual == expected
        assert sorted(actual.values()) == list(range(40))

    def test_unroll_two_matches_reference(self):
        """Unrolled issue width doubles per-cycle demand; packing
        must still match the reference exactly."""
        body = [_FakeNode("kernel.mulf", i) for i in range(20)]
        budget = ResourceBudget(fmul=4)
        expected = _reference_list_schedule(body, budget, None, 2)
        actual = scheduling._list_schedule(body, budget, None, 2)
        assert actual == expected


class TestOversubscriptionError:
    def test_names_functional_unit(self):
        node = _FakeNode("secure.encrypt", 0)
        with pytest.raises(SchedulingError,
                           match=r"'crypto' oversubscribed"):
            scheduling._list_schedule(
                [node], ResourceBudget(), None, 2
            )

    def test_names_memory_buffer(self):
        buffer = _Buffer(0)
        node = _FakeNode("kernel.load", 0, buffer)
        with pytest.raises(SchedulingError,
                           match=r"memport\(%buf0\).*oversubscribed"):
            scheduling._list_schedule(
                [node], ResourceBudget(memport=1), None, 2
            )

    def test_reports_demand_vs_limit(self):
        node = _FakeNode("kernel.mulf", 0)
        with pytest.raises(SchedulingError, match="4 .* vs .*2"):
            scheduling._list_schedule(
                [node], ResourceBudget(fmul=2), None, 4
            )


class TestRealKernelSchedules:
    """Ground the fake-node property in CDFGs from real kernels."""

    KERNELS = {
        "hot": hotpath_kernel(depth=60),
        "gemm": GEMM_SRC,
        "stream": """
kernel stream(X: tensor<64xf32>, Y: tensor<64xf32>)
        -> tensor<64xf32> {
  Z = exp(X) * Y + X
  return Z
}
""",
    }

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("unroll", [1, 2, 4])
    def test_innermost_bodies_match_reference(self, kernel, unroll):
        module = compile_kernel(self.KERNELS[kernel])
        knobs = VariantKnobs(target="fpga", unroll=unroll)
        prepared = prepare_variant_module(module, kernel, knobs)
        function = prepared.find_function(kernel)
        cdfg = build_cdfg(function)
        plan = plan_memories(cdfg, unroll=unroll)
        ports = plan.ports_map()
        budget = hls_options_for(knobs).budget
        checked = 0
        for loop in cdfg.innermost_loops():
            if not loop.body:
                continue
            effective = (
                budget.scaled(loop.unroll)
                if loop.unroll > 1 else budget
            )
            expected = _reference_list_schedule(
                loop.body, effective, ports, 1
            )
            actual = scheduling._list_schedule(
                loop.body, effective, ports, 1
            )
            assert actual == expected
            checked += 1
        assert checked > 0
