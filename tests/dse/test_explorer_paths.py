"""The explorer has one pricing routine; these tests hold it to that.

Every point — serial, thread pool, process pool, cold or warm,
bound-guided or not — goes through
:func:`repro.core.dse.cost_model._evaluate_batch` on the thread that
called ``run()``: the same cost-cache traffic, the same result, the
same trace whichever pool prices the misses, and counters that belong
to one run.
"""

import threading

import pytest

from repro.core.dse.cache import (
    CostCache,
    clear_caches,
    cost_cache,
    prepared_cache,
)
from repro.core.dse.explorer import Explorer
from repro.core.dse.space import DesignSpace
from repro.core.dsl.annotations import Requirement, RequirementKind
from repro.core.dsl.kernel_dsl import compile_kernel
from repro.obs import observe, session

from tests.dse.oracle import partitioned_module, partitioned_space

#: Spans two 16-point batches and both targets; bound guidance skips
#: some of it.
SPACE = DesignSpace(
    targets=("cpu", "fpga"),
    threads=(1, 2, 4, 8),
    unrolls=(1, 2, 4, 8),
    tiles=(0, 8),
    clocks_hz=(250e6, 350e6),
)

DEADLINE = Requirement(kind=RequirementKind.LATENCY, value=2.5e-5)

#: (workers, workers_mode); the first is the reference.
MODES = [(1, "thread"), (2, "thread"), (2, "process")]

#: Explorer options; the first two carry no deadline.
SEARCHES = [
    {},
    {"bound_guided": True},
    {"bound_guided": True, "requirements": [DEADLINE]},
]


def traced_run(explorer):
    """One run under a deterministic session: everything observable."""
    cost_before = cost_cache().stats.snapshot()
    with observe(session(deterministic=True)) as obs:
        result = explorer.run()
    traffic = cost_cache().stats.delta(cost_before)
    return {
        "json": result.to_json(),
        "front": result.front_json(),
        "trace": obs.tracer.to_json(),
        "cost": (traffic.hits, traffic.misses, traffic.stores),
        "pruned": obs.metrics.counter(
            "dse.pruned_points").value(kernel=explorer.kernel),
        "bound_pruned": obs.metrics.counter(
            "dse.bound_pruned_points").value(kernel=explorer.kernel),
    }


class TestCountersBelongToOneRun:
    """``_pruned`` / ``_bound_pruned`` were zeroed in ``__init__`` only:
    a second ``run()`` published the sum of both runs."""

    def test_static_prune_count(self):
        explorer = Explorer(
            partitioned_module(), "k", space=partitioned_space())
        first = traced_run(explorer)
        second = traced_run(explorer)
        assert first["pruned"] == second["pruned"] == 1
        assert explorer._pruned == 1
        assert '"pruned":1' in second["trace"].replace(" ", "")

    def test_bound_prune_count(self, gemm_module):
        explorer = Explorer(
            gemm_module, "gemm", space=SPACE, bound_guided=True)
        first = traced_run(explorer)
        second = traced_run(explorer)
        assert first["bound_pruned"] > 0
        assert second["bound_pruned"] == first["bound_pruned"]
        assert explorer._bound_pruned == first["bound_pruned"]
        # the same points were skipped: only the cache traffic differs
        assert second["json"] == first["json"]


@pytest.mark.parametrize("options", SEARCHES)
class TestOnePathForEveryPool:
    def test_cold_and_warm_agree_across_modes(
            self, gemm_module, options):
        runs = []
        for workers, workers_mode in MODES:
            clear_caches()
            cold = traced_run(Explorer(
                gemm_module, "gemm", space=SPACE, workers=workers,
                workers_mode=workers_mode, **options))
            warm = traced_run(Explorer(
                gemm_module, "gemm", space=SPACE, workers=workers,
                workers_mode=workers_mode, **options))
            runs.append((cold, warm))
        (reference_cold, reference_warm) = runs[0]
        evaluations = reference_cold["cost"][1]
        assert reference_cold["cost"] == (0, evaluations, evaluations)
        assert reference_warm["cost"] == (evaluations, 0, 0)
        # warmth shows in the cache counters and nowhere else
        assert {**reference_warm, "cost": None} == \
            {**reference_cold, "cost": None}
        for (cold, warm), mode in zip(runs[1:], MODES[1:]):
            assert cold == reference_cold, mode
            assert warm == reference_warm, mode


class TestCostCacheStaysOnTheCallingThread:
    """Thread-pool workers used to do their own ``get``/``put``; a
    batch's misses are stored in one ``put_many``."""

    @pytest.mark.parametrize("workers,workers_mode", MODES)
    @pytest.mark.parametrize("options", SEARCHES[:2])
    def test_every_get_and_put(self, gemm_module, monkeypatch,
                               workers, workers_mode, options):
        callers = {"get": [], "put_many": []}
        for name in callers:
            inner = getattr(CostCache, name)

            def recorded(cache, *args, _name=name, _inner=inner):
                callers[_name].append(threading.get_ident())
                return _inner(cache, *args)

            monkeypatch.setattr(CostCache, name, recorded)
        explorer = Explorer(
            gemm_module, "gemm", space=SPACE, workers=workers,
            workers_mode=workers_mode, **options)
        result = explorer.run()
        here = threading.get_ident()
        assert len(callers["get"]) == result.evaluations
        # a cold run: every point a miss, and each miss stored once
        assert cost_cache().stats.stores == cost_cache().entry_count() == result.evaluations
        assert set(callers["get"] + callers["put_many"]) == {here}


TWO_KERNELS = """
kernel first(A: tensor<16x16xf32>, B: tensor<16x16xf32>)
        -> tensor<16x16xf32> {
  C = A @ B
  return C
}
kernel second(X: tensor<64xf32>, Y: tensor<64xf32>)
        -> tensor<64xf32> {
  Z = exp(X) * Y + X
  return Z
}
"""


class TestPreparedModulesAreSharedAcrossKernels:
    def test_each_pipeline_is_prepared_once_per_module(self):
        """The pass pipeline runs over the whole module and never
        reads the kernel name, so the second kernel of an application
        finds every pipeline the first one prepared."""
        module = compile_kernel(TWO_KERNELS)
        pipelines = {
            (knobs.matmul_order, knobs.tile, knobs.layout, knobs.dift)
            for knobs in SPACE.points() if knobs.target == "fpga"
        }
        fpga_points = sum(
            knobs.target == "fpga" for knobs in SPACE.points())
        before = prepared_cache().stats.snapshot()
        for kernel in ("first", "second"):
            Explorer(module, kernel, space=SPACE).run()
        traffic = prepared_cache().stats.delta(before)
        assert traffic.lookups == 2 * fpga_points
        assert traffic.misses == len(pipelines) == 2
