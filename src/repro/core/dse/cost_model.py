"""High-level architecture cost models for variant evaluation.

The middle-end "relies on high-level architecture models and
simulators to explore the design space" (paper §III-B, [23-26]).
:class:`ArchitectureModel` captures one target node (CPU + optional
FPGA + attachment link); :func:`evaluate_variant` predicts latency,
energy and resource footprint of a knob assignment by actually running
the knob-specific compilation (tiling, lowering) on a clone of the
kernel and HLS, with the loop directives, on the result — the
estimation feedback loop of Fig. 1.

Evaluation is memoized through the content-addressed caches in
:mod:`repro.core.dse.cache`: prepared (knob-transformed) modules live
in a bounded LRU and finished cost estimates in a two-level cost cache,
both keyed by the *structural digest* of the source module — never by
``id()``, which the garbage collector recycles. The cost cache has one
reader and writer, :func:`_evaluate_batch`: the explorer hands it
batches, :func:`evaluate_variant` is the same routine for one point,
and :func:`price_variant` is what it runs for a miss.

A variant is built once per prepared content and clock-free option
set: :func:`synthesize_variant` is the only ``prepare → synthesize``
chain, and pricing runs the same two steps, keeping each synthesis in
the :func:`~repro.core.dse.cache.synthesis_memo` of the prepared
module's content digest under its kernel and options but the clock,
which no HLS step reads — the points whose pipelines prepare equal
modules share a synthesis, and the points that differ only in clock
re-price one :class:`~repro.core.hls.bambu.DesignFigures` at their
own clock. The
estimate of a feasible FPGA point carries the bitstream of the design
it was priced from, which is what the compiler packages.

:func:`bound_for` runs the same CPU and link arithmetic over the
static analyzer's work and cycle floors
(:class:`~repro.core.analysis.perf.StaticBounds`): the per-knob-point
lower bound the bound-guided explorer orders and prunes by.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple)

from repro.core.analysis.absint import (
    FunctionFacts,
    function_facts,
    partition_conflict,
)
from repro.core.analysis.perf import StaticBounds, fpga_cycles_lower_bound
from repro.core.dse.cache import (
    CostCache, cost_cache, prepared_cache, synthesis_memo)
from repro.core.hls.bambu import (
    DEFAULT_CLOCK_HZ, AcceleratorDesign, hls_options_for, synthesize)
from repro.core.ir.digest import module_digest
from repro.core.ir.module import Function, Module
from repro.core.ir.passes import (
    CanonicalizePass,
    DataLayoutPass,
    ElementwiseFusionPass,
    LowerTensorPass,
    MatmulLoopOrderPass,
    PassManager,
    SecurityInstrumentationPass,
    TilingPass,
)
from repro.core.ir.passes.partitioning import estimate_work, signature_bytes
from repro.core.ir.passes.tiling import TILABLE
from repro.core.variants import CostEstimate, VariantKnobs
from repro.errors import DSEError, HLSError, SchedulingError
from repro.platform.interconnect import Link, OpenCAPILink
from repro.platform.resources import CPUDescription, FPGAResources


#: Amdahl parallel fraction of a priced CPU kernel.
PARALLEL_FRACTION = 0.95
#: Fraction of peak flops a scalar CPU kernel sustains.
CPU_EFFICIENCY = 0.15
#: Latency factor of software DIFT on the host CPU.
SOFTWARE_DIFT_SLOWDOWN = 2.1


@dataclass
class ArchitectureModel:
    """One candidate execution target for cost prediction."""

    name: str = "power9+capi-fpga"
    cpu: CPUDescription = None  # type: ignore[assignment]
    fpga_role_capacity: Optional[FPGAResources] = None
    fpga_link: Optional[Link] = None
    host_memory_bandwidth: float = 120e9
    base_clock_hz: float = 400e6

    def __post_init__(self):
        if self.cpu is None:
            self.cpu = CPUDescription(
                name="POWER9", cores=16, frequency_hz=3.1e9,
                flops_per_cycle=8.0, tdp_watts=190.0, idle_watts=60.0,
            )
        if self.fpga_role_capacity is None:
            self.fpga_role_capacity = FPGAResources(
                luts=520_000, ffs=1_040_000, bram_kb=35_000, dsps=3_300
            )
        if self.fpga_link is None:
            self.fpga_link = OpenCAPILink()

    def achievable_clock(self, resources: FPGAResources) -> float:
        """Timing de-rating: denser designs close at lower clocks."""
        density = resources.luts / max(self.fpga_role_capacity.luts, 1)
        return self.base_clock_hz / (1.0 + 1.5 * density)

    def fingerprint(self) -> str:
        """Stable identity of the model for cost-cache keys: every
        parameter that changes a predicted cost."""
        link = self.fpga_link
        link_part = (
            "none" if link is None else
            f"{link.name}|{link.latency_s!r}|{link.bandwidth!r}|"
            f"{link.per_message_overhead!r}|"
            f"{link.energy_pj_per_byte!r}|{link.coherent}"
        )
        cpu = self.cpu
        cpu_part = (
            f"{cpu.name}|{cpu.cores}|{cpu.frequency_hz!r}|"
            f"{cpu.flops_per_cycle!r}|{cpu.tdp_watts!r}|"
            f"{cpu.idle_watts!r}"
        )
        fpga_part = (
            "none" if self.fpga_role_capacity is None else
            f"{self.fpga_role_capacity.luts}|"
            f"{self.fpga_role_capacity.ffs}|"
            f"{self.fpga_role_capacity.bram_kb}|"
            f"{self.fpga_role_capacity.dsps}"
        )
        return "\x1f".join((
            self.name, cpu_part, fpga_part, link_part,
            repr(self.host_memory_bandwidth),
            repr(self.base_clock_hz),
            # each value keeps its place in the key: moving one would
            # orphan every cost-cache entry already written
            repr(PARALLEL_FRACTION),
            repr(CPU_EFFICIENCY),
            repr(SOFTWARE_DIFT_SLOWDOWN),
        ))


def _op_names(module: Module) -> FrozenSet[str]:
    """The names of the ops in ``module``'s functions, kept on its root
    op by version the way :func:`module_digest` keeps its digest."""
    root = module.op
    memo = getattr(root, "_op_names_memo", None)
    if memo is None or memo[0] != root.version:
        memo = root._op_names_memo = (root.version, frozenset(
            op.name for function in module.functions()
            for op in function.walk()))
    return memo[1]


def prepare_variant_module(
    module: Module,
    kernel: str,
    knobs: VariantKnobs,
    digest: Optional[str] = None,
) -> Module:
    """Clone the tensor-form module and apply the knob's passes.

    Prepared modules are cached in a bounded LRU keyed by the module's
    *content* digest (pass ``digest`` to reuse a precomputed one), so
    the cache survives garbage collection of the source module without
    ever aliasing a recycled ``id``, and by the passes the pipeline
    holds with their parameters — exactly what the result depends on.
    Layout and DIFT enter the key whenever they are set; the matmul
    order only when the module holds a ``tensor.matmul``, and the tile
    only when it holds a ``tensor.matmul`` or ``tensor.contract``, the
    ops those two passes rewrite. So the points that differ only in
    knobs no pass reads share one prepared module: threads, clock,
    memory strategy, and the loop directives (unroll, interleave),
    which HLS applies from its options
    (:func:`~repro.core.hls.bambu.hls_options_for`), and on a kernel
    with nothing to tile, the tile. A CPU point and every FPGA point
    of one pipeline get the same module. ``kernel`` is not in the key:
    the passes run over the whole module, so the kernels of one
    application share its prepared modules too. Callers must not
    mutate it.
    """
    ops = _op_names(module)
    manager = PassManager(verify_each=False)
    manager.add(ElementwiseFusionPass())
    # A pass with no op to rewrite would leave the module as it found
    # it. Reading the ops before the pipeline is exact only because no
    # pass ahead of these two (fusion merges element-wise ops) creates
    # a matmul or a contraction.
    if knobs.matmul_order != "ijk" and "tensor.matmul" in ops:
        manager.add(MatmulLoopOrderPass(knobs.matmul_order))
    if knobs.tile and not ops.isdisjoint(TILABLE):
        manager.add(TilingPass(
            tile_sizes=(knobs.tile, knobs.tile, knobs.tile)))
    if knobs.layout in ("aos", "soa"):
        manager.add(DataLayoutPass(knobs.layout))
    if knobs.dift:
        manager.add(SecurityInstrumentationPass())
    manager.add(LowerTensorPass())
    manager.add(CanonicalizePass())

    if digest is None:
        digest = module_digest(module)
    cache = prepared_cache()
    cache_key = (digest, tuple(
        (pass_.name, tuple(sorted(vars(pass_).items())))
        for pass_ in manager.passes
    ))
    cached = cache.get(cache_key)
    if cached is not None:
        return cached
    clone = module.clone()
    manager.run(clone)
    cache.put(cache_key, clone)
    return clone


def synthesize_variant(
    module: Module,
    kernel: str,
    knobs: VariantKnobs,
) -> AcceleratorDesign:
    """The accelerator one FPGA knob point stands for.

    The one ``prepare → synthesize`` chain: DSE pricing and the
    ``synth`` / ``emit --what rtl`` commands all build through here,
    so what is priced is what is reported and packaged.
    """
    prepared = prepare_variant_module(module, kernel, knobs)
    return synthesize(prepared, kernel, hls_options_for(knobs))


def cached_estimate(
    cache: CostCache, key: str, knobs: VariantKnobs,
) -> Optional[CostEstimate]:
    """The cost-cache entry for one point, if it can stand in for
    pricing it: a feasible FPGA estimate without the bitstream the
    packager needs is no hit — the caller re-prices and overwrites."""
    cost = cache.get(key)
    if (cost is not None and cost.feasible and knobs.target == "fpga"
            and cost.bitstream is None):
        return None
    return cost


def evaluate_variant(
    module: Module,
    kernel: str,
    knobs: VariantKnobs,
) -> CostEstimate:
    """Predict the cost of one knob assignment on the default architecture.

    ``module`` must hold the kernel in tensor form (pre-lowering).
    This is :func:`_evaluate_batch` for one point: memoized in the
    process-wide cost cache under ``(module_digest, kernel, knobs,
    model.fingerprint())``. Cache hits return a fresh
    :class:`CostEstimate`; a point :func:`price_variant` rejects is
    never stored, so it is rejected again on every call.
    """
    model = ArchitectureModel()
    costs, _ = _evaluate_batch(
        module, kernel, [knobs], model, module_digest(module),
        model.fingerprint())
    return costs[0]


def _evaluate_batch(
    module: Module,
    kernel: str,
    batch: Sequence[VariantKnobs],
    model: ArchitectureModel,
    digest: str,
    fingerprint: str,
    facts: Optional[FunctionFacts] = None,
    price_misses: Callable[..., Iterable[CostEstimate]] = map,
) -> Tuple[List[CostEstimate], int]:
    """Cost every point of ``batch``: the one per-point pipeline.

    In order, on the calling thread: the static partition gate (only
    when the caller passes the kernel's interval ``facts`` — a
    rejected point gets the verdict the cost model's own gate would
    reach, without touching the cache), one cost-cache ``get`` per
    remaining point, the misses priced by ``price_misses(price,
    misses)`` — the built-in ``map``, an executor's, or anything of
    that shape returning estimates in order — and one ``put_many`` of
    the misses. This is the only function that reads or writes the cost
    cache, so every caller, at every worker count, counts the same
    traffic. Returns the estimates in batch order (each a fresh
    object the caller may rewrite) and how many the gate rejected.
    """
    cache = cost_cache()
    costs: List[Optional[CostEstimate]] = []
    keys: Dict[int, str] = {}
    pruned = 0
    for index, knobs in enumerate(batch):
        conflict = partition_conflict(facts, knobs)
        if conflict is not None:
            pruned += 1
            costs.append(CostEstimate.infeasible(conflict))
            continue
        key = CostCache.key(digest, kernel, knobs, fingerprint)
        cost = cached_estimate(cache, key, knobs)
        if cost is None:
            keys[index] = key
        costs.append(cost)
    priced = list(price_misses(
        partial(price_variant, module, kernel, model=model, digest=digest),
        [batch[index] for index in keys],
    ))
    for index, cost in zip(keys, priced):
        costs[index] = cost
    cache.put_many(zip(keys.values(), priced))
    return costs, pruned


def price_variant(
    module: Module,
    kernel: str,
    knobs: VariantKnobs,
    model: Optional[ArchitectureModel] = None,
    digest: Optional[str] = None,
) -> CostEstimate:
    """Price one knob assignment, bypassing the cost cache.

    This is the pure computation :func:`_evaluate_batch` runs for a
    cache miss — validation plus target dispatch, no cost-cache
    get/put — wherever the caller's ``map`` puts it: inline, on a
    worker thread, or (through :func:`repro.core.dse.pool.price_point`)
    in a pool child. (The prepared-module LRU is still consulted, per
    process.)
    """
    model = model or ArchitectureModel()
    function = module.find_function(kernel)
    if function is None:
        raise DSEError(f"no kernel named {kernel!r}")
    if knobs.target not in ("cpu", "fpga"):
        raise DSEError(
            f"cost model does not support target {knobs.target!r}"
        )
    if knobs.target == "cpu":
        return _evaluate_cpu(function, knobs, model)
    return _evaluate_fpga(module, kernel, knobs, model, digest)


def cpu_cost_terms(
    work: float, data_bytes: float, knobs: VariantKnobs,
    model: ArchitectureModel,
) -> "tuple[float, float]":
    """``(latency_s, energy_j)`` of ``work`` flops on the host CPU.

    This is the *entire* CPU pricing arithmetic, shared with
    :func:`bound_for`: the CPU lower bound must never exceed the priced
    cost, and reusing the identical float operations makes it exact.
    """
    efficiency = CPU_EFFICIENCY
    if knobs.tile:
        efficiency *= 1.6  # blocked working set stays in cache
    if knobs.layout == "soa":
        efficiency *= 1.15  # unit-stride vectorizable streams
    efficiency = min(efficiency, 0.6)

    threads = max(1, min(knobs.threads, model.cpu.cores))
    serial = 1.0 - PARALLEL_FRACTION
    speedup = 1.0 / (serial + PARALLEL_FRACTION / threads)

    # One thread sustains one core's throughput; additional threads
    # scale it by the Amdahl speedup up to the chip's core count.
    per_core_flops = (
        model.cpu.frequency_hz * model.cpu.flops_per_cycle
    )
    compute_s = work / (per_core_flops * efficiency * speedup)
    memory_s = data_bytes / model.host_memory_bandwidth
    latency = max(compute_s, memory_s) + 2e-6  # dispatch overhead
    if knobs.dift:
        latency *= SOFTWARE_DIFT_SLOWDOWN

    active_fraction = threads / model.cpu.cores
    power = model.cpu.idle_watts + (
        model.cpu.tdp_watts - model.cpu.idle_watts) * active_fraction
    return latency, power * latency


def fpga_link_terms(
    compute_s: float, data_bytes: int, link: Link,
) -> "tuple[float, float]":
    """``(latency_s, transfer_j)`` of one invocation over ``link``.

    The attachment-link arithmetic shared with :func:`bound_for`,
    which passes the analyzer's cycle floor where pricing passes the
    synthesized latency.
    """
    if link.coherent:
        # Coherent attachment streams operands on demand: transfer
        # overlaps the pipeline, so the invocation is bound by the
        # slower of compute and link bandwidth, plus one link latency.
        stream_s = data_bytes / link.bandwidth
        latency = max(compute_s, stream_s) + link.latency_s
    else:
        # Non-coherent: explicit staging copies before/after compute.
        latency = compute_s + link.transfer_time(data_bytes)
    return latency, link.transfer_energy(data_bytes)


def bound_for(
    bounds: StaticBounds, knobs: VariantKnobs, model: ArchitectureModel,
) -> "tuple[float, float]":
    """``(latency_s, energy_j)`` floor for one knob point.

    Guaranteed not to exceed what :func:`evaluate_variant` returns for
    the same point (infeasible points price at +inf, above any bound):
    the analyzer's work and cycle floors through the pricing arithmetic
    above.
    """
    if knobs.target == "cpu":
        return cpu_cost_terms(
            bounds.work, bounds.data_bytes, knobs, model)
    if knobs.target != "fpga":
        return 0.0, 0.0
    if model.fpga_link is None or model.fpga_role_capacity is None:
        return float("inf"), float("inf")
    cycles = fpga_cycles_lower_bound(bounds, knobs)
    return fpga_link_terms(
        cycles / max(1.0, float(knobs.clock_hz)), bounds.arg_bytes,
        model.fpga_link)


def _evaluate_cpu(
    function: Function, knobs: VariantKnobs, model: ArchitectureModel,
) -> CostEstimate:
    work, _ = estimate_work(function)
    data_bytes = signature_bytes(function)
    latency, energy = cpu_cost_terms(work, data_bytes, knobs, model)
    return CostEstimate(
        latency_s=latency, energy_j=energy, data_bytes=data_bytes)


def _evaluate_fpga(
    module: Module, kernel: str, knobs: VariantKnobs,
    model: ArchitectureModel, digest: Optional[str] = None,
) -> CostEstimate:
    if model.fpga_role_capacity is None or model.fpga_link is None:
        return CostEstimate.infeasible("no FPGA on this node")
    # Static partition-legality gate: knob points whose unroll provably
    # over-subscribes an explicitly partitioned buffer's ports are
    # rejected before any pass or scheduling work. The explorer prunes
    # on the same predicate, so both paths report the same reason.
    conflict = partition_conflict(
        function_facts(module, kernel, digest), knobs
    )
    if conflict is not None:
        return CostEstimate.infeasible(conflict)
    # Synthesized once per prepared content, kernel and options but the
    # clock, which no HLS step reads; a miss takes the chain of
    # synthesize_variant on the first module of that content.
    memo = synthesis_memo(
        prepare_variant_module(module, kernel, knobs, digest))
    options = hls_options_for(knobs)
    key = (kernel, replace(options, clock_hz=DEFAULT_CLOCK_HZ))
    figures = memo.get(key)
    if figures is None:
        try:
            figures = synthesize(
                memo.prepared, kernel, options).figures()
        except (HLSError, SchedulingError) as exc:
            figures = str(exc)
        memo[key] = figures
    if isinstance(figures, str):
        return CostEstimate.infeasible(figures)
    design = replace(figures, clock_hz=knobs.clock_hz)

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

    latency, transfer_j = fpga_link_terms(
        design.latency_seconds, design.data_bytes, model.fpga_link)
    return CostEstimate(
        latency_s=latency,
        energy_j=design.energy_per_invocation + transfer_j,
        resources=design.resources,
        data_bytes=design.data_bytes,
        bitstream=design.bitstream(),
    )
