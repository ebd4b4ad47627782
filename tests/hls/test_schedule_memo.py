"""One list schedule per loop and binding-limit set.

``schedule_loop`` keeps one body copy's start cycles in the loop's
shared facts, keyed by each resource's limit clamped to the body's own
issues on it: a limit at or above them never fills a cycle, so every
budget and port map with the same clamped limits schedules alike.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.hls import scheduling
from repro.core.hls.bambu import HLSOptions, synthesize
from repro.core.hls.cdfg import cdfg_of
from repro.core.hls.scheduling import ResourceBudget, schedule_loop
from repro.core.ir.passes import (
    CanonicalizePass, ElementwiseFusionPass, LowerTensorPass, PassManager)
from repro.errors import SchedulingError
from tests.hls.test_scheduler_equivalence import random_dfg
from tests.conftest import examples

UNITS = ("fadd", "fmul", "fdiv", "special")

STREAM = """
kernel stream(X: tensor<64xf32>, Y: tensor<64xf32>) -> tensor<64xf32> {
  Z = exp(X) * Y + X * X + Y * Y
  return Z
}
"""


def clamped(body, budget, ports):
    """The budget and port map holding exactly the clamped limits."""
    limits = dict(scheduling._binding_limits(
        scheduling._issues(body), budget, ports))
    units = {unit: limits.get(unit, getattr(budget, unit))
             for unit in UNITS}
    return (ResourceBudget(**units, memport=budget.memport),
            {id(node.buffer()): limits[scheduling._resource_key(node)]
             for node in body if node.buffer() is not None})


@settings(max_examples=examples(150), deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_clamped_limits_schedule_alike(seed):
    body, _, _, _ = random_dfg(seed)
    rng = random.Random(seed)
    budget = ResourceBudget(**{unit: rng.randint(1, 12) for unit in UNITS},
                            memport=rng.randint(1, 12))
    buffers = {id(node.buffer()) for node in body
               if node.buffer() is not None}
    ports = {key: rng.randint(1, 12) for key in buffers
             if rng.random() < 0.7}
    expected = scheduling._list_schedule(body, budget, ports, 1)
    assert scheduling._list_schedule(
        body, *clamped(body, budget, ports), 1) == expected


def fused():
    """``STREAM`` fused into one loop and lowered."""
    module = compile_kernel(STREAM)
    manager = PassManager()
    for pass_ in (ElementwiseFusionPass(), LowerTensorPass(),
                  CanonicalizePass()):
        manager.add(pass_)
    manager.run(module)
    return module


@pytest.fixture
def loop():
    (loop,) = cdfg_of(fused().find_function("stream")).innermost_loops()
    return loop


def test_budgets_clamping_alike_share_one_schedule(loop):
    wide = schedule_loop(loop, ResourceBudget(fadd=64, fmul=64))
    assert schedule_loop(
        loop, ResourceBudget(fadd=99, fmul=99)).start_cycle \
        is wide.start_cycle
    narrow = schedule_loop(loop, ResourceBudget(fadd=1, fmul=1))
    assert narrow.start_cycle is not wide.start_cycle
    assert narrow.start_cycle == scheduling._list_schedule(
        loop.body, ResourceBudget(fadd=1, fmul=1), None, 1)
    assert len(loop.facts["list_schedules"]) == 2


def test_a_limit_set_that_raises_is_not_kept(loop):
    buffer = next(node.buffer() for node in loop.body
                  if node.buffer() is not None)
    for _ in range(2):
        with pytest.raises(SchedulingError, match="oversubscribed"):
            schedule_loop(loop, None, {id(buffer): 0})
    assert loop.facts.get("list_schedules", {}) == {}


def test_designs_leave_the_shared_start_cycles_unwritten():
    module = fused()
    designs = [synthesize(module, "stream", HLSOptions(unroll=unroll))
               for unroll in (1, 2, 4, 1)]
    for design in designs:
        design.rtl()
    first, again = designs[0], designs[-1]
    (loop,) = first.cdfg.innermost_loops()
    (start,) = (schedule.start_cycle
                for schedule in first.schedules.values())
    assert all(schedule.start_cycle is start
               for schedule in again.schedules.values())
    assert start == scheduling._list_schedule(
        loop.body, first.options.budget, first.memory_plan.ports_map(), 1)
