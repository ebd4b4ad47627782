"""Design-space exploration: every distinct point of a
:class:`~repro.core.dse.space.DesignSpace` is priced.

The space enumerates only distinct points, and the spaces here are
small enough to price whole (1500 points for ``thorough()``), so there
is one search, :meth:`Explorer.exhaustive`. It returns an
:class:`ExplorationResult` with every evaluated variant and the Pareto
front, and honors non-functional requirements by marking variants that
violate them infeasible.

There is one loop and one pricing routine. The search hands
:meth:`Explorer._evaluate_points` *which points, in which order, in
batches of what size, skipping which*; every batch is priced by
:meth:`Explorer._price`, which is
:func:`repro.core.dse.cost_model._evaluate_batch` (static partition
gate, cost-cache ``get``, the misses priced and stored in one
``put_many``) under a muted observation, followed by the requirement
check. All of that runs on the thread that called :meth:`Explorer.run`;
with ``workers > 1`` only the *misses* of a batch leave it, for a
thread pool's or the process pool's ``map``. The result is bit-for-bit
identical to a serial run: costs are computed by a pure function of
the point, batch boundaries do not depend on ``workers``, and
:class:`~repro.core.variants.Variant` records are materialized in
submission order on the main thread. Fronts are maintained with the
incremental :class:`~repro.core.dse.pareto.ParetoFront`, so the
front-growth curve costs O(n·front) instead of O(n³).

Three checks can spare a point the pricing, in this order. While a
batch is filled, the two ``skip`` filters of **bound-guided**
exploration (``Explorer(..., bound_guided=True)``):
points are offered in ascending order of their analytic lower bound
(:func:`repro.core.dse.cost_model.bound_for`), and a point is dropped
entirely when its *bound* already violates a requirement or is
dominated by an already-priced front member — the bound never exceeds
the priced cost, so a dominated bound proves the point can never join
the front. The resulting front is identical (member set *and* order,
hence :meth:`ExplorationResult.front_json` byte-identity) to an
unpruned run; skips are counted in ``dse.bound_pruned_points``. Then,
inside the pricing routine, the **partition gate**: a point whose
unroll provably over-subscribes a partitioned buffer's ports stays in
the result, infeasible, with the reason the cost model itself would
give (``dse.pruned_points``).
"""

from __future__ import annotations

import json
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.core.analysis.absint import function_facts
from repro.core.analysis.perf import kernel_bounds
from repro.core.dse.cache import cost_cache, prepared_cache
from repro.core.dse.cost_model import (
    ArchitectureModel,
    _evaluate_batch,
    bound_for,
)
from repro.core.dse.pareto import ParetoFront
from repro.core.dse.pool import create_pool, price_point
from repro.core.dse.space import DesignSpace
from repro.core.dsl.annotations import Requirement, RequirementKind
from repro.core.ir.digest import module_digest
from repro.core.ir.module import Module
from repro.core.ir.printer import print_module
from repro.core.variants import CostEstimate, Variant, VariantKnobs
from repro.errors import DSEError
from repro.obs import Observation, current_metrics, current_tracer, observe

#: Tracer category for exploration spans and front-growth events.
DSE_CATEGORY = "dse.explore"

#: Points per evaluation batch. Deliberately independent of the worker
#: count so batch spans (and therefore deterministic traces) are
#: identical whether a run is serial or parallel.
BATCH_SIZE = 16

#: Batch size for bound-guided exploration. Smaller than
#: :data:`BATCH_SIZE` because skip decisions only happen between
#: batches: the sooner the first (best-bounded) points are priced, the
#: more later points the incumbent front can prove skippable. Still a
#: fixed constant so batch composition is worker-independent.
BOUND_BATCH_SIZE = 4


def _variant_row(variant: Variant) -> Dict[str, Any]:
    """What every serialized form says about one variant."""
    return {
        "knobs": variant.knobs.describe(),
        "target": variant.knobs.target,
        "latency_s": variant.cost.latency_s,
        "energy_j": variant.cost.energy_j,
        "data_bytes": variant.cost.data_bytes,
        "feasible": variant.cost.feasible,
    }


def _canonical_json(payload: Dict[str, Any], indent: Optional[int]) -> str:
    return json.dumps(payload, sort_keys=True, indent=indent,
                      separators=None if indent else (",", ":"))


def _violation(
    requirements: Sequence[Requirement], cost: CostEstimate,
) -> Optional[str]:
    """Why ``cost`` breaks the first requirement it breaks, or None.

    The one requirement test: run over a priced estimate it decides
    feasibility, run over an analytic lower bound it proves the
    priced cost would break the requirement too.
    """
    for requirement in requirements:
        if requirement.kind is RequirementKind.ENERGY:
            measured = cost.energy_j
        elif requirement.kind is RequirementKind.THROUGHPUT:
            measured = 1.0 / max(cost.latency_s, 1e-30)
        else:  # LATENCY, DEADLINE
            measured = cost.latency_s
        if not requirement.satisfied_by(measured):
            return (
                f"violates {requirement.kind.value} requirement "
                f"({measured:.3g} vs {requirement.value:.3g})"
            )
    return None


@dataclass
class ExplorationResult:
    """Everything the explorer produced for one kernel."""

    kernel: str
    evaluated: List[Variant] = field(default_factory=list)
    front: List[Variant] = field(default_factory=list)

    @property
    def evaluations(self) -> int:
        """How many points were priced."""
        return len(self.evaluated)

    @property
    def feasible(self) -> List[Variant]:
        """All feasible evaluated variants."""
        return [v for v in self.evaluated if v.cost.feasible]

    def best_latency(self) -> Variant:
        """Fastest feasible variant."""
        candidates = self.feasible
        if not candidates:
            raise DSEError(f"kernel {self.kernel!r}: no feasible variant")
        return min(candidates, key=lambda v: v.cost.latency_s)

    def best_energy(self) -> Variant:
        """Most energy-frugal feasible variant."""
        candidates = self.feasible
        if not candidates:
            raise DSEError(f"kernel {self.kernel!r}: no feasible variant")
        return min(candidates, key=lambda v: v.cost.energy_j)

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON of the whole result.

        Variants are identified by their position in evaluation order
        (not by the process-global ``variant_id``), so two runs that
        evaluate the same points in the same order — e.g. a serial and
        a parallel exploration — serialize byte-identically.
        """
        position = {id(v): i for i, v in enumerate(self.evaluated)}
        return _canonical_json({
            "kernel": self.kernel,
            "evaluations": self.evaluations,
            "evaluated": [
                dict(
                    _variant_row(variant),
                    infeasible_reason=variant.cost.infeasible_reason,
                    resources=asdict(variant.cost.resources),
                )
                for variant in self.evaluated
            ],
            "front": [position[id(v)] for v in self.front],
        }, indent)

    def front_json(self) -> str:
        """Canonical JSON of the Pareto front alone.

        Unlike :meth:`to_json` this does not mention the evaluated
        set, so a bound-guided (pruned) and an unpruned exploration of
        the same space — which price different point sets but must
        agree on the front — serialize byte-identically.
        """
        return _canonical_json({
            "kernel": self.kernel,
            "front": [_variant_row(variant) for variant in self.front],
        }, None)


class Explorer:
    """Explores one kernel's design space.

    ``workers`` sets the width of the pool a batch's cache misses are
    priced on; 1 (the default) prices inline. ``workers_mode`` picks
    the pool flavor: ``"thread"`` (cheap, but GIL-bound for the
    pure-Python pricing) or ``"process"`` (true parallelism; work
    units are picklable knob points keyed by the module digest). Any
    combination produces byte-identical results, traces and cost-cache
    statistics, and the same number of prepared-module lookups; how
    those split into hits and misses depends on which worker priced
    which point, because the points that run the same pass pipeline
    share one prepared module per process. No SDK entry point widens
    the pool any more (serial pricing is as fast, ROADMAP item 13);
    the benchmark's pricing probe and the pool tests still do.
    """

    def __init__(
        self,
        module: Module,
        kernel: str,
        space: Optional[DesignSpace] = None,
        model: Optional[ArchitectureModel] = None,
        requirements: Optional[Sequence[Requirement]] = None,
        workers: int = 1,
        workers_mode: str = "thread",
        prune: bool = True,
        bound_guided: bool = False,
        digest: Optional[str] = None,
    ):
        if workers < 1:
            raise DSEError(f"workers must be >= 1, got {workers}")
        if workers_mode not in ("thread", "process"):
            raise DSEError(
                "workers_mode must be 'thread' or 'process', "
                f"got {workers_mode!r}"
            )
        self.module = module
        self.kernel = kernel
        self.space = space or DesignSpace.small()
        self.model = model or ArchitectureModel()
        self.requirements = list(requirements or [])
        self.workers = workers
        self.workers_mode = workers_mode
        self._process_pool = None
        #: Content digest of the source module; accepted from the
        #: caller (the compiler hashes once per compile) or computed
        #: here — either way per-point cache lookups skip re-hashing.
        self._digest = digest if digest is not None else \
            module_digest(module)
        self._fingerprint = self.model.fingerprint()
        #: Interval facts for the kernel, shared with the cost model's
        #: own static gate through the digest-keyed memo. Pruning only
        #: fires on nodes that have an FPGA at all: on a CPU-only
        #: model the cost model reports "no FPGA on this node" first,
        #: and the pruner must not preempt that reason.
        self._facts = (
            function_facts(module, kernel, self._digest)
            if prune
            and self.model.fpga_role_capacity is not None
            and self.model.fpga_link is not None
            else None
        )
        self.bound_guided = bound_guided
        self._pruned = 0
        self._bound_pruned = 0

    # ------------------------------------------------------------------

    def _price(self, batch: Sequence[VariantKnobs]) -> List[CostEstimate]:
        """Price one batch (cache-aware, requirement-checked).

        The per-point pipeline is
        :func:`~repro.core.dse.cost_model._evaluate_batch`; the
        requirement check is the explorer's own (estimates come back
        fresh, so the in-place rewrite is private to this run).
        Statically illegal points (a partition whose ports an unrolled
        access pattern provably over-subscribes) get, before the cost
        model runs, exactly the estimate its own gate would have
        produced, so pruned and unpruned explorations serialize
        byte-identically.

        Pricing is hermetic: it runs under a muted observation so the
        trace shape depends on neither cache warmth (hits skip the
        pass pipeline entirely) nor worker threads (which must never
        touch the ambient tracer).
        """
        with observe(Observation()):
            costs, pruned = _evaluate_batch(
                self.module, self.kernel, batch, self.model,
                self._digest, self._fingerprint, self._facts,
                self._price_misses,
            )
        self._pruned += pruned
        for cost in costs:
            if cost.feasible:
                reason = _violation(self.requirements, cost)
                if reason is not None:
                    cost.feasible = False
                    cost.infeasible_reason = reason
        return costs

    def _price_misses(
        self,
        price: Callable[[VariantKnobs], CostEstimate],
        misses: List[VariantKnobs],
    ) -> Iterator[CostEstimate]:
        """Where a batch's cache misses are priced, in batch order.

        One miss, or one worker, prices inline. A thread pool runs the
        same ``price``; pool children run
        :func:`~repro.core.dse.pool.price_point` — the same pricing
        against their own parsed copy of the module — and send back
        the prepared-cache traffic it caused, folded into this
        process's counters here.
        """
        if self.workers == 1 or len(misses) < 2:
            yield from map(price, misses)
        elif self.workers_mode == "thread":
            with ThreadPoolExecutor(max_workers=self.workers) as executor:
                yield from executor.map(price, misses)
        else:
            if self._process_pool is None:
                self._process_pool = create_pool(
                    self.workers, print_module(self.module),
                    self._digest, self.kernel, self.model,
                )
            merged = prepared_cache().stats
            for cost, child_delta in self._process_pool.map(
                    price_point, misses):
                merged.add(child_delta)
                yield cost

    def close(self) -> None:
        """Release the process pool, if one was created."""
        if self._process_pool is not None:
            self._process_pool.shutdown()
            self._process_pool = None

    def _admit(self, knobs: VariantKnobs, cost: CostEstimate,
               result: ExplorationResult, front: ParetoFront) -> Variant:
        """Record one priced point, in order, on the main thread."""
        variant = Variant(kernel=self.kernel, knobs=knobs, cost=cost)
        result.evaluated.append(variant)
        front.add(variant)
        return variant

    def _evaluate_points(
        self,
        points: Sequence[VariantKnobs],
        result: ExplorationResult,
        front: ParetoFront,
        batch_size: int = BATCH_SIZE,
        skip: Sequence[Callable[[VariantKnobs], bool]] = (),
    ) -> List[Variant]:
        """Price ``points`` in order, ``batch_size`` at a time.

        A point one of the ``skip`` filters rejects is dropped
        unpriced; the filters run in order, on the main thread, while
        a batch is being filled, so they see everything admitted
        before it and batch composition never depends on ``workers``.
        Returns the admitted variants in submission order.
        """
        tracer = current_tracer()
        admitted: List[Variant] = []
        pending = deque(points)
        while pending:
            batch: List[VariantKnobs] = []
            while pending and len(batch) < batch_size:
                knobs = pending.popleft()
                if any(rejects(knobs) for rejects in skip):
                    self._bound_pruned += 1
                else:
                    batch.append(knobs)
            if not batch:
                break
            with tracer.span(f"batch:{self.kernel}",
                             category=DSE_CATEGORY) as span:
                for knobs, cost in zip(batch, self._price(batch)):
                    admitted.append(
                        self._admit(knobs, cost, result, front)
                    )
                span.note(points=len(batch))
        return admitted

    # ------------------------------------------------------------------

    def exhaustive(self) -> ExplorationResult:
        """Evaluate every point of the space.

        Bound-guided, every point its analytic lower bound cannot rule
        out: points are priced best-bound-first, so the incumbent
        front gains strong members early, and a point is skipped when
        its bound already violates a requirement (latency and energy
        bounds are floors, the throughput bound a ceiling) or is
        dominated by an incumbent — which then dominates the actual
        cost too, with the same strict coordinate, so the point could
        neither join the front nor evict anyone from it. The priced
        points are then admitted in space order, which makes the
        front (members *and* order) that of an unpruned run.
        """
        points = list(self.space.points())
        result = ExplorationResult(kernel=self.kernel)
        front = ParetoFront()
        bounds = (
            kernel_bounds(self.module, self.kernel, self._digest)
            if self.bound_guided else None
        )
        if bounds is None:
            self._evaluate_points(points, result, front)
        else:
            floor = {
                knobs: CostEstimate(*bound_for(bounds, knobs, self.model))
                for knobs in points
            }
            incumbents = ParetoFront()
            skip = (
                lambda knobs: _violation(
                    self.requirements, floor[knobs]) is not None,
                lambda knobs: any(
                    member.cost.dominates(floor[knobs])
                    for member in incumbents
                ),
            )
            # a stable sort: equal bounds stay in space order
            best_first = sorted(points, key=lambda knobs: (
                floor[knobs].latency_s, floor[knobs].energy_j))
            variants = self._evaluate_points(
                best_first, ExplorationResult(kernel=self.kernel),
                incumbents, BOUND_BATCH_SIZE, skip,
            )
            priced = {v.knobs: v.cost for v in variants}
            for knobs in points:
                if knobs in priced:
                    self._admit(knobs, priced[knobs], result, front)
        result.front = front.variants()
        return result

    def run(self, strategy: str = "exhaustive") -> ExplorationResult:
        """Explore exhaustively; traces and meters the run.

        ``strategy`` names the one search, ``"exhaustive"``, for
        callers that still pass it; any other name is a ``DSEError``.
        """
        if strategy != "exhaustive":
            raise DSEError(f"unknown exploration strategy {strategy!r}")
        tracer = current_tracer()
        prepared_before = prepared_cache().stats.snapshot()
        cost_before = cost_cache().stats.snapshot()
        self._pruned = self._bound_pruned = 0
        try:
            with tracer.span(f"explore:{self.kernel}",
                             category=DSE_CATEGORY,
                             strategy=strategy) as span:
                result = self.exhaustive()
                span.note(
                    evaluations=result.evaluations,
                    front=len(result.front),
                    feasible=len(result.feasible),
                    pruned=self._pruned,
                    bound_pruned=self._bound_pruned,
                )
        finally:
            self.close()
        metrics = current_metrics()
        metrics.counter(
            "dse.evaluations", "design points evaluated",
        ).inc(result.evaluations, kernel=self.kernel,
              strategy=strategy)
        metrics.counter(
            "dse.front_points", "Pareto-optimal points found",
        ).inc(len(result.front), kernel=self.kernel)
        for name, what, count in (
            ("dse.pruned_points",
             "points rejected statically before pricing", self._pruned),
            ("dse.bound_pruned_points",
             "points skipped by analytic lower bound", self._bound_pruned),
        ):
            if count:
                metrics.counter(name, what).inc(count, kernel=self.kernel)
        # Cache traffic this run caused, published from the main
        # thread (workers never touch the ambient observation).
        for cache_name, stats, before in (
            ("prepared", prepared_cache().stats, prepared_before),
            ("cost", cost_cache().stats, cost_before),
        ):
            delta = stats.delta(before)
            metrics.counter(
                "dse.cache_hits", "DSE cache hits",
            ).inc(delta.hits, cache=cache_name, kernel=self.kernel)
            metrics.counter(
                "dse.cache_misses", "DSE cache misses",
            ).inc(delta.misses, cache=cache_name, kernel=self.kernel)
        return result
