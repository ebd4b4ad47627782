"""An FPGA design is synthesized once for every clock it is priced at,
over a CDFG built once for every option set.

No HLS step reads the clock, so the points of a design space that
differ only in clock share one synthesis: the prepared module keeps
what pricing synthesized from it, by kernel and HLS options without
the clock. No option changes a kernel's structure, so every synthesis
from one prepared module starts from one CDFG, and none builds an
FSMD. These tests hold every priced FPGA point to a design synthesized
afresh, from a fresh clone with nothing cached, at that point's clock,
in either pricing order and after the caches are cleared, and count
the syntheses, CDFGs and FSMDs an exploration builds.
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
from repro.core.hls import bambu
from repro.core.store import encode
from repro.core.variants import CostEstimate, VariantKnobs
from repro.errors import HLSError, SchedulingError
from repro.platform.fpga import Bitstream
from tests.dse.test_directive_options import THOROUGH_SOURCES

#: The shape of the end-to-end benchmark's space.
SPACE = DesignSpace(
    targets=("cpu", "fpga"),
    threads=(1, 2, 4, 8),
    unrolls=(1, 2, 4, 8),
    tiles=(0, 8),
    memory_strategies=("auto", "cyclic", "none"),
    clocks_hz=(250e6, 350e6),
)

#: Seeded benchmark kernels (seed 1): chains, an imported MLP, a 24-deep
#: element-wise chain whose widest designs miss timing at 350 MHz, a
#: reduction and two matmuls.
KERNELS = (0, 1, 2, 4, 7, 8)

#: A memory strategy the HLS memory planner rejects.
UNKNOWN_STRATEGY = VariantKnobs(
    target="fpga", unroll=2, memory_strategy="banked")


def seeded_kernel(index):
    kernel = kernel_input(1, index)
    source = kernel.source or import_model(kernel.model).dsl_source
    return compile_kernel(source), kernel.name


def designs_of(space):
    """Clock-free FPGA knob points: the space's, then one HLS rejects."""
    points = [knobs for knobs in space.points()
              if knobs.target == "fpga"
              and knobs.clock_hz == space.clocks_hz[0]]
    return points + [UNKNOWN_STRATEGY]


def fresh_estimate(module, kernel, knobs, model):
    """The estimate of a design synthesized for this point alone, from
    a fresh clone with nothing cached, with the clock arithmetic
    spelled out."""
    clear_caches()
    try:
        design = synthesize_variant(module.clone(), kernel, knobs)
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


def thorough_kernel(name):
    return compile_kernel(THOROUGH_SOURCES[name]), name


CASES = [pytest.param((seeded_kernel, index, SPACE), id=f"e2e-{index}")
         for index in KERNELS] + [
    pytest.param((thorough_kernel, name, DesignSpace.thorough()),
                 id=f"thorough-{name}")
    for name in sorted(THOROUGH_SOURCES)]


@pytest.fixture(scope="module", params=CASES)
def priced_kernel(request):
    """One kernel and space with the fresh estimate of every FPGA
    point."""
    build, key, space = request.param
    module, kernel = build(key)
    model = ArchitectureModel()
    points = [replace(knobs, clock_hz=clock)
              for knobs in designs_of(space) for clock in space.clocks_hz]
    expected = {knobs: encode(fresh_estimate(module, kernel, knobs, model))
                for knobs in points}
    return module, kernel, space, model, expected


class TestPricingEquivalence:
    @pytest.mark.parametrize("order", ["clock-first", "clock-last"])
    def test_every_point_prices_as_a_fresh_design(self, priced_kernel,
                                                  order):
        module, kernel, space, model, expected = priced_kernel
        designs, clocks = designs_of(space), space.clocks_hz
        if order == "clock-first":
            points = [replace(knobs, clock_hz=clock)
                      for clock in clocks for knobs in designs]
        else:
            points = [replace(knobs, clock_hz=clock)
                      for knobs in designs for clock in clocks]
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
        _, kernel, space, _, expected = priced_kernel
        clocks = space.clocks_hz
        reasons = {knobs.clock_hz: set() for knobs in expected}
        for knobs, payload in expected.items():
            reasons[knobs.clock_hz].add(
                payload["infeasible_reason"].split(":")[0])
        assert "" in reasons[clocks[0]]
        assert "timing" not in reasons[clocks[0]]
        for clock in clocks:
            assert "unknown memory strategy 'banked'" in reasons[clock]
        if kernel == kernel_input(1, 2).name:
            assert "timing" in reasons[clocks[1]]


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
        module, kernel = seeded_kernel(1)
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
        module, kernel = seeded_kernel(1)
        serial = Explorer(module, kernel, space=SPACE).run("exhaustive")
        clear_caches()
        pooled = Explorer(module, kernel, space=SPACE, workers=2,
                          workers_mode="process").run("exhaustive")
        assert pooled.front_json() == serial.front_json()
        assert pooled.to_json() == serial.to_json()


@pytest.fixture
def builds(monkeypatch):
    """CDFGs and FSMDs the HLS driver builds."""
    counts = {"cdfg": 0, "fsmd": 0}

    def counting(kind, build):
        def call(*args, **kwargs):
            counts[kind] += 1
            return build(*args, **kwargs)
        return call

    monkeypatch.setattr(bambu, "build_cdfg",
                        counting("cdfg", bambu.build_cdfg))
    monkeypatch.setattr(bambu, "build_fsmd",
                        counting("fsmd", bambu.build_fsmd))
    return counts


class TestBuildCount:
    #: Each case with its prepared modules: the tiles of the e2e space;
    #: the tiles x DIFT x matmul orders of the thorough space.
    @pytest.mark.parametrize(
        "case,prepared",
        [(case, 2 if case.id.startswith("e2e") else 12) for case in CASES],
        ids=[case.id for case in CASES])
    def test_one_cdfg_per_prepared_kernel(self, builds, case, prepared):
        (build, key, space), = case.values
        module, kernel = build(key)
        cold = Explorer(module, kernel, space=space).run("exhaustive")
        assert builds == {"cdfg": prepared, "fsmd": 0}

        cost_cache().clear()
        warm = Explorer(module, kernel, space=space).run("exhaustive")
        assert builds == {"cdfg": prepared, "fsmd": 0}
        assert warm.to_json() == cold.to_json()

        # A design built outside pricing starts from the same CDFG and
        # builds its FSMD when its RTL is asked for.
        design = synthesize_variant(
            module, kernel, VariantKnobs(target="fpga", unroll=2))
        assert builds == {"cdfg": prepared, "fsmd": 0}
        assert design.rtl() == design.rtl()
        assert builds == {"cdfg": prepared, "fsmd": 1}

