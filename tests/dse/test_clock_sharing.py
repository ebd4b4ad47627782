"""An FPGA design is synthesized once for every clock it is priced at.

No HLS step reads the clock, so the points of a design space that
differ only in clock share one synthesis: the prepared module keeps
what pricing synthesized from it, by kernel and HLS options without
the clock. These tests hold every priced FPGA point to a design
synthesized afresh at that point's clock, in either pricing order and
after the caches are cleared, and count the syntheses an exploration
makes.
"""

from dataclasses import replace

import pytest

from benchmarks.e2e.inputs import kernel_input
from repro.core.dse import cost_model
from repro.core.dse.cache import clear_caches, cost_cache
from repro.core.dse.cost_model import (
    ArchitectureModel,
    fpga_link_terms,
    price_variant,
    synthesize_variant,
)
from repro.core.dse.explorer import Explorer
from repro.core.dse.space import DesignSpace
from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.frontend import import_model
from repro.core.store import encode
from repro.core.variants import CostEstimate, VariantKnobs
from repro.errors import HLSError, SchedulingError
from repro.platform.fpga import Bitstream

#: The shape of the end-to-end benchmark's space.
SPACE = DesignSpace(
    targets=("cpu", "fpga"),
    threads=(1, 2, 4, 8),
    unrolls=(1, 2, 4, 8),
    tiles=(0, 8),
    memory_strategies=("auto", "cyclic", "none"),
    clocks_hz=(250e6, 350e6),
)
CLOCKS = SPACE.clocks_hz

#: Seeded benchmark kernels (seed 1): an imported MLP, a 24-deep
#: element-wise chain whose widest designs miss timing at 350 MHz, a
#: reduction and a matmul.
KERNELS = (1, 2, 4, 7)

#: A memory strategy the HLS memory planner rejects.
UNKNOWN_STRATEGY = VariantKnobs(
    target="fpga", unroll=2, memory_strategy="banked")


def seeded_kernel(index):
    kernel = kernel_input(1, index)
    source = kernel.source or import_model(kernel.model).dsl_source
    return compile_kernel(source), kernel.name


def designs_of(kernel_name):
    """Clock-free FPGA knob points: the space's, then one HLS rejects."""
    points = [knobs for knobs in SPACE.points()
              if knobs.target == "fpga" and knobs.clock_hz == CLOCKS[0]]
    return points + [UNKNOWN_STRATEGY]


def fresh_estimate(module, kernel, knobs, model):
    """The estimate of a design synthesized for this point alone, with
    the clock arithmetic spelled out."""
    try:
        design = synthesize_variant(module, kernel, knobs)
    except (HLSError, SchedulingError) as exc:
        return CostEstimate.infeasible(str(exc))
    assert design.options.clock_hz == knobs.clock_hz
    if not design.resources.fits_in(model.fpga_role_capacity):
        return CostEstimate.infeasible(
            "design exceeds role capacity", design.resources)
    achievable = model.achievable_clock(design.resources)
    if knobs.clock_hz > achievable:
        return CostEstimate.infeasible(
            f"timing: requested {knobs.clock_hz / 1e6:.0f} MHz, "
            f"achievable {achievable / 1e6:.0f} MHz",
            design.resources,
        )
    seconds = design.latency_cycles / knobs.clock_hz
    latency, transfer_j = fpga_link_terms(
        seconds, design.data_bytes, model.fpga_link)
    return CostEstimate(
        latency_s=latency,
        energy_j=design.dynamic_watts * seconds + transfer_j,
        resources=design.resources,
        data_bytes=design.data_bytes,
        bitstream=Bitstream(
            name=f"{kernel}@{int(knobs.clock_hz / 1e6)}MHz",
            footprint=design.resources,
            clock_hz=knobs.clock_hz,
            dynamic_watts=design.dynamic_watts,
        ),
    )


@pytest.fixture(autouse=True)
def empty_caches():
    clear_caches()
    yield
    clear_caches()


@pytest.fixture(scope="module", params=KERNELS)
def priced_kernel(request):
    """One seeded kernel with the fresh estimate of every FPGA point."""
    module, kernel = seeded_kernel(request.param)
    model = ArchitectureModel()
    points = [replace(knobs, clock_hz=clock)
              for knobs in designs_of(kernel) for clock in CLOCKS]
    expected = {knobs: encode(fresh_estimate(module, kernel, knobs, model))
                for knobs in points}
    return module, kernel, model, expected


class TestPricingEquivalence:
    @pytest.mark.parametrize("order", ["clock-first", "clock-last"])
    def test_every_point_prices_as_a_fresh_design(self, priced_kernel,
                                                  order):
        module, kernel, model, expected = priced_kernel
        designs = designs_of(kernel)
        if order == "clock-first":
            points = [replace(knobs, clock_hz=clock)
                      for clock in CLOCKS for knobs in designs]
        else:
            points = [replace(knobs, clock_hz=clock)
                      for knobs in designs for clock in CLOCKS]
        for attempt in ("cold", "warm memo", "after clear_caches"):
            if attempt == "after clear_caches":
                clear_caches()
            priced = {knobs: encode(price_variant(module, kernel, knobs,
                                                  model=model))
                      for knobs in points}
            assert priced == expected, attempt

    def test_the_space_reaches_every_verdict(self, priced_kernel):
        """Between them the kernels cover feasible points, points
        that miss timing at 350 MHz only, and a synthesis failure."""
        _, kernel, _, expected = priced_kernel
        reasons = {knobs.clock_hz: set() for knobs in expected}
        for knobs, payload in expected.items():
            reasons[knobs.clock_hz].add(
                payload["infeasible_reason"].split(":")[0])
        assert "" in reasons[CLOCKS[0]]
        assert "timing" not in reasons[CLOCKS[0]]
        for clock in CLOCKS:
            assert "unknown memory strategy 'banked'" in reasons[clock]
        if kernel == kernel_input(1, 2).name:
            assert "timing" in reasons[CLOCKS[1]]


@pytest.fixture
def syntheses(monkeypatch):
    """Calls of the HLS driver made through the cost model."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return synthesize(*args, **kwargs)

    synthesize = cost_model.synthesize
    monkeypatch.setattr(cost_model, "synthesize", counting)
    return calls


class TestSynthesisCount:
    def test_one_synthesis_per_clock_free_design(self, syntheses):
        module, kernel = seeded_kernel(KERNELS[0])
        fpga_points = [knobs for knobs in SPACE.points()
                       if knobs.target == "fpga"]
        designs = {(knobs.unroll, knobs.tile, knobs.memory_strategy)
                   for knobs in fpga_points}
        assert (len(fpga_points), len(designs)) == (48, 24)

        cold = Explorer(module, kernel, space=SPACE).run("exhaustive")
        assert len(syntheses) == len(designs)

        cost_cache().clear()
        warm = Explorer(module, kernel, space=SPACE).run("exhaustive")
        assert len(syntheses) == len(designs)
        assert warm.to_json() == cold.to_json()

        # The memo goes with its prepared module.
        clear_caches()
        Explorer(module, kernel, space=SPACE).run("exhaustive")
        assert len(syntheses) == 2 * len(designs)

    def test_process_pool_finds_the_same_front(self):
        module, kernel = seeded_kernel(KERNELS[0])
        serial = Explorer(module, kernel, space=SPACE).run("exhaustive")
        clear_caches()
        pooled = Explorer(module, kernel, space=SPACE, workers=2,
                          workers_mode="process").run("exhaustive")
        assert pooled.front_json() == serial.front_json()
        assert pooled.to_json() == serial.to_json()
