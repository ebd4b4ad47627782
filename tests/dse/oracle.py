"""What the DSE pricing tests hold every estimate to.

Paper §III-B rests on every variant being a functionally equivalent
implementation of one kernel, so pricing may share work between points
(one prepared module per pass pipeline, one synthesis per prepared
content and clock-free option set, one CDFG per prepared content)
only if each point still prices as it would alone. Two independent
oracles say what "alone" means:

* :func:`fresh_estimate` — a design synthesized for the point by
  itself, from a fresh clone with nothing cached, at its own clock,
  with the clock arithmetic spelled out;
* :func:`recipe_outcomes` — the recipe that wrote the loop directives
  into the IR (``LoopDirectivesPass`` / ``AccumulationInterleavePass``
  before canonicalization) and synthesized with options that follow
  the IR's attributes.

How much sharing to expect is read from modules prepared here and
from the kernel's ops, not from the memo under test:
:func:`distinct_builds` counts the distinct content digests of the
modules the points' full pass pipelines prepare, and :func:`pipelines`
the pipelines left once a pass with no op to rewrite (tiling without a
matmul or contraction, a loop order without a matmul) is dropped. The
full pipeline, every knob's pass included, is
:func:`annotated_module` with ``directives=False``: each prepared
module must print as it does.
:func:`schedule_violations` checks a synthesized design's (possibly
shared) one-copy schedules against that design's own budget and
ports.

The cases are seeded benchmark kernels over the end-to-end benchmark's
own space, two small kernels over :meth:`DesignSpace.thorough` and the
hand-written ``.ir`` fixtures (four of which carry their own
``unroll`` / ``pipeline_ii`` / ``interleave``). ``tests/dse/conftest.py``
prices and explores each case once per session.
"""

from collections import Counter

from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Tuple

from benchmarks.e2e.inputs import kernel_input
from benchmarks.e2e.workloads import SPACE
from repro.core.dse import cost_model
from repro.core.dse.cache import clear_caches
from repro.core.dse.cost_model import (
    ArchitectureModel, fpga_link_terms, price_variant, synthesize_variant)
from repro.core.dse.space import DesignSpace
from repro.core.dsl.kernel_dsl import compile_kernel
from repro.core.frontend import import_model
from repro.core.hls.bambu import hls_options_for
from repro.core.hls.scheduling import RESOURCE_CLASS, latency_of
from repro.core.ir import parse_module, passes
from repro.core.ir.digest import module_digest
from repro.core.ir.builder import Builder
from repro.core.ir.module import Module
from repro.core.ir.types import F32, FunctionType, MemRefType
from repro.core.store import encode
from repro.core.variants import CostEstimate, VariantKnobs
from repro.errors import HLSError, SchedulingError
from repro.platform.fpga import Bitstream

MODEL = ArchitectureModel()

#: Seeded benchmark kernels (seed 1): chains, an imported MLP, a 24-deep
#: element-wise chain whose widest designs miss timing at 350 MHz, a
#: reduction (``mean``) and two matmuls.
KERNELS = (0, 1, 2, 4, 7, 8)

#: Two small kernels for the thorough space (an interleavable matmul
#: accumulation and an element-wise chain).
THOROUGH_SOURCES = {
    "mm": """
kernel mm(A: tensor<8x8xf32>, B: tensor<8x8xf32>) -> tensor<8x8xf32> {
  C = relu(A @ B)
  return C
}
""",
    "ew": """
kernel ew(X: tensor<16xf32>, Y: tensor<16xf32>) -> tensor<16xf32> {
  Z = sigmoid(exp(X) * Y + X)
  return Z
}
""",
}

FIXTURES = sorted(
    (Path(__file__).parents[1] / "analysis" / "fixtures").glob("*.ir"))

#: The orders a case's points are priced in, each from empty caches,
#: then again over the warm synthesis memo.
ORDERS = ("clock-first", "clock-last")
ATTEMPTS = ("cold", "warm memo")

#: A memory strategy the HLS memory planner rejects.
UNKNOWN_STRATEGY = VariantKnobs(
    target="fpga", unroll=2, memory_strategy="banked")


def seeded_source(seed, index):
    """DSL text of one seeded end-to-end application."""
    kernel = kernel_input(seed, index)
    return kernel.source or import_model(kernel.model).dsl_source


def seeded_kernel(seed, index):
    """``(module, kernel name)`` of one seeded end-to-end application."""
    return (compile_kernel(seeded_source(seed, index)),
            kernel_input(seed, index).name)


def partitioned_module():
    """Kernel-form ``k``: a cyclic factor-2 buffer, an 8-trip loop."""
    module = Module("m")
    memref = MemRefType((8,), F32)
    function = module.add_function(
        "k", FunctionType((memref,), ()))
    b = Builder()
    b.set_insertion_point(function.entry_block)
    buffer = function.arguments[0]
    b.create(
        "hw.partition", operands=[buffer],
        attributes={"scheme": "cyclic", "factor": 2},
    )
    loop = b.for_loop(0, 8)
    with b.at_block(loop.body):
        iv = loop.induction_var
        value = b.load(buffer, [iv])
        b.store(value, buffer, [iv])
        b.yield_op()
    b.ret([])
    return module


def partitioned_space():
    # unroll 8 demands 2 x 8 = 16 ports; cyclic factor 2 offers 4.
    return DesignSpace(
        targets=("cpu", "fpga"), threads=(1,), unrolls=(1, 2, 8),
    )


@dataclass(frozen=True)
class Case:
    """A kernel with the clock-free FPGA designs it is priced at."""

    id: str
    build: Callable[[], Tuple[Module, str]]
    designs: Tuple[VariantKnobs, ...]
    clocks: Tuple[float, ...]
    #: Explored and held to fresh designs when given.
    space: Optional[DesignSpace] = None

    @property
    def pipelines(self):
        """The pass pipelines (prepared modules) the space's points
        run, read from the kernel's ops."""
        return pipelines(self.build()[0], self.space.points())

    def points(self, clock_first=True):
        if clock_first:
            return [replace(knobs, clock_hz=clock)
                    for clock in self.clocks for knobs in self.designs]
        return [replace(knobs, clock_hz=clock)
                for knobs in self.designs for clock in self.clocks]


def _designs(space):
    """The space's FPGA points at its first clock."""
    return tuple(knobs for knobs in space.points()
                 if knobs.target == "fpga"
                 and knobs.clock_hz == space.clocks_hz[0])


def _cases():
    thorough = DesignSpace.thorough()
    cases = [Case(f"e2e-{index}", partial(seeded_kernel, 1, index),
                  _designs(SPACE) + (UNKNOWN_STRATEGY,), SPACE.clocks_hz,
                  SPACE) for index in KERNELS]
    cases += [Case(
        f"thorough-{name}",
        lambda name=name: (compile_kernel(THOROUGH_SOURCES[name]), name),
        _designs(thorough) + (UNKNOWN_STRATEGY,), thorough.clocks_hz,
        thorough) for name in sorted(THOROUGH_SOURCES)]
    # the .ir fixtures at one clock, with and without interleaving
    designs = _designs(SPACE)
    designs += tuple(replace(knobs, interleave=8) for knobs in designs)
    for path in FIXTURES:
        cases += [Case(f"{path.stem}:{function.name}",
                       lambda path=path, name=function.name: (
                           parse_module(path.read_text()), name),
                       designs, SPACE.clocks_hz[:1])
                  for function in parse_module(path.read_text()).functions()
                  if not function.is_declaration]
    return {case.id: case for case in cases}


#: Every case by id, in parametrization order.
CASES = _cases()
#: The cases explored and held to fresh designs.
EXPLORED = [id for id, case in CASES.items() if case.space is not None]


def fresh_estimate(module, kernel, knobs, model=MODEL):
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


def pipelines(module, points):
    """How many pass pipelines ``points`` run on ``module``: one per
    distinct layout pass and DIFT, times the tiles when a function
    holds a matmul or a contraction, times the matmul orders when it
    holds a matmul (the e2e space's are its tiles on a matmul kernel,
    one on any other; the thorough space's its tiles x DIFT x orders on
    a matmul, DIFT alone on an element-wise chain)."""
    ops = {op.name for function in module.functions()
           for op in function.walk()}
    tiled = not ops.isdisjoint(("tensor.matmul", "tensor.contract"))
    ordered = "tensor.matmul" in ops
    return len({(knobs.tile if tiled else 0,
                 knobs.layout if knobs.layout in ("aos", "soa") else None,
                 knobs.dift,
                 knobs.matmul_order if ordered else "ijk")
                for knobs in points})


def annotated_module(module, knobs, directives=True):
    """The prepared module the annotating recipe built: every knob's
    pass, whether or not it finds an op to rewrite, and the directives
    written into the IR before canonicalization (left out with
    ``directives=False``: the full pipeline a prepared module must
    print as)."""
    manager = passes.PassManager(verify_each=False)
    manager.add(passes.ElementwiseFusionPass())
    if knobs.matmul_order != "ijk":
        manager.add(passes.MatmulLoopOrderPass(knobs.matmul_order))
    if knobs.tile:
        manager.add(passes.TilingPass(
            tile_sizes=(knobs.tile, knobs.tile, knobs.tile)))
    if knobs.layout in ("aos", "soa"):
        manager.add(passes.DataLayoutPass(knobs.layout))
    if knobs.dift:
        manager.add(passes.SecurityInstrumentationPass())
    manager.add(passes.LowerTensorPass())
    if directives:
        manager.add(passes.LoopDirectivesPass(unroll_factor=knobs.unroll))
    if directives and knobs.interleave > 1:
        manager.add(passes.AccumulationInterleavePass(knobs.interleave))
    manager.add(passes.CanonicalizePass())
    clone = module.clone()
    manager.run(clone)
    return clone


def distinct_builds(module, kernel, designs):
    """``{"synthesize": n, "cdfg": m}`` one cold pricing of ``designs``
    may build: one synthesis per distinct prepared content and
    clock-free option set, one CDFG per distinct prepared content —
    the content digests of modules prepared here, once per pipeline."""
    contents = {}
    for knobs in designs:
        pipeline = (knobs.tile, knobs.layout, knobs.dift,
                    knobs.matmul_order)
        if pipeline not in contents:
            contents[pipeline] = module_digest(
                annotated_module(module, knobs, directives=False))
    syntheses = {
        (contents[knobs.tile, knobs.layout, knobs.dift,
                  knobs.matmul_order], kernel,
         replace(hls_options_for(knobs), clock_hz=1.0))
        for knobs in designs}
    return {"synthesize": len(syntheses),
            "cdfg": len(set(contents.values()))}


def schedule_violations(design):
    """Where ``design``'s one-copy start cycles break a dependence or
    issue more per cycle than its own budget's units or its memory
    plan's ports allow."""
    budget = design.options.budget
    ports = design.memory_plan.ports_map()
    found = []
    for loop in design.cdfg.innermost_loops():
        start = design.schedules[id(loop)].start_cycle
        issued = Counter()
        for node in loop.body:
            for predecessor in node.predecessors:
                if start[id(node)] < (start[id(predecessor)]
                                      + latency_of(predecessor)):
                    found.append(f"{node} starts before {predecessor} ends")
            unit = RESOURCE_CLASS.get(node.op.name)
            if unit is None:
                continue
            if unit == "memport":
                unit = id(node.buffer())
                limit = ports.get(unit, budget.memport)
            else:
                limit = getattr(budget, unit)
            issued[start[id(node)], unit] += 1
            if issued[start[id(node)], unit] > limit:
                found.append(f"{node} oversubscribes {unit!r} at cycle "
                             f"{start[id(node)]} (limit {limit})")
    return found


def ir_options(knobs):
    """The knob's options, but the loop directives read from the IR."""
    return replace(hls_options_for(knobs), unroll=None, interleave=None)


def outcome(call):
    """``call()``'s encoded estimate, or the error it raised."""
    try:
        return encode(call())
    except Exception as exc:  # compared, not hidden
        return type(exc).__name__, str(exc)


def recipe_outcomes(module, kernel, points, monkeypatch):
    """``{knobs: outcome}`` of pricing each point through the
    annotating recipe."""
    clear_caches()
    annotated = {}

    def prepare(module, kernel, knobs, digest=None):
        key = (knobs.matmul_order, knobs.tile, knobs.layout, knobs.dift,
               knobs.unroll, knobs.interleave)
        if key not in annotated:
            annotated[key] = annotated_module(module, knobs)
        return annotated[key]

    with monkeypatch.context() as patch:
        patch.setattr(cost_model, "prepare_variant_module", prepare)
        patch.setattr(cost_model, "hls_options_for", ir_options)
        return {knobs: outcome(
                    lambda: price_variant(module, kernel, knobs, MODEL))
                for knobs in points}
