"""Design-space exploration strategies.

Three searchers over :class:`~repro.core.dse.space.DesignSpace`:

* ``exhaustive`` — evaluate every point (the default; spaces here are
  small enough);
* ``random`` — sample a budgeted subset;
* ``evolutionary`` — (mu+lambda) mutation search using single-knob
  neighborhoods, for the ablation benchmark comparing strategies.

All return an :class:`ExplorationResult` with every evaluated variant
and the Pareto front, and honor non-functional requirements by marking
variants that violate them infeasible.

Evaluation runs in fixed-size **batches**; with ``workers > 1`` the
points of a batch are priced concurrently on a thread pool. The result
is bit-for-bit identical to a serial run: costs are computed by a pure
function of the point (memoized through the content-addressed caches),
batch boundaries do not depend on ``workers``, and
:class:`~repro.core.variants.Variant` records are materialized in
submission order on the main thread. Fronts are maintained with the
incremental :class:`~repro.core.dse.pareto.ParetoFront`, so the
front-growth curve costs O(n·front) instead of O(n³).

**Bound-guided pruning** (``Explorer(..., bound_guided=True)``) layers
the static performance analyzer on top of the exhaustive strategy:
points are priced in ascending order of their analytic latency lower
bound (:func:`repro.core.dse.cost_model.bound_for`), and a point is
skipped entirely when its *bound* already violates a requirement or is
dominated by an already-priced front member — the bound never exceeds
the priced cost, so a dominated bound proves the point can never join
the front. The resulting front is identical (member set *and* order,
hence :meth:`ExplorationResult.front_json` byte-identity) to an
unpruned run; skips are counted in ``dse.bound_pruned_points``.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.analysis.absint import function_facts, partition_conflict
from repro.core.analysis.perf import kernel_bounds
from repro.core.dse.cache import CostCache, cost_cache, prepared_cache
from repro.core.dse.cost_model import (
    ArchitectureModel,
    bound_for,
    cached_estimate,
    evaluate_variant,
)
from repro.core.dse.pareto import ParetoFront
from repro.core.dse.pool import create_pool, price_point
from repro.core.dse.space import DesignSpace, neighborhood
from repro.core.dsl.annotations import Requirement, RequirementKind
from repro.core.ir.digest import module_digest
from repro.core.ir.module import Module
from repro.core.ir.printer import print_module
from repro.core.variants import CostEstimate, Variant, VariantKnobs
from repro.errors import DSEError
from repro.obs import Observation, current_metrics, current_tracer, observe
from repro.utils.rng import deterministic_rng

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


@dataclass
class ExplorationResult:
    """Everything the explorer produced for one kernel."""

    kernel: str
    evaluated: List[Variant] = field(default_factory=list)
    front: List[Variant] = field(default_factory=list)
    evaluations: int = 0

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
        payload = {
            "kernel": self.kernel,
            "evaluations": self.evaluations,
            "evaluated": [
                {
                    "knobs": variant.knobs.describe(),
                    "target": variant.knobs.target,
                    "latency_s": variant.cost.latency_s,
                    "energy_j": variant.cost.energy_j,
                    "data_bytes": variant.cost.data_bytes,
                    "feasible": variant.cost.feasible,
                    "infeasible_reason": variant.cost.infeasible_reason,
                    "resources": {
                        "luts": variant.cost.resources.luts,
                        "ffs": variant.cost.resources.ffs,
                        "bram_kb": variant.cost.resources.bram_kb,
                        "dsps": variant.cost.resources.dsps,
                    },
                }
                for variant in self.evaluated
            ],
            "front": [position[id(v)] for v in self.front],
        }
        return json.dumps(payload, sort_keys=True, indent=indent,
                          separators=None if indent else (",", ":"))

    def front_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON of the Pareto front alone.

        Unlike :meth:`to_json` this does not mention the evaluated
        set, so a bound-guided (pruned) and an unpruned exploration of
        the same space — which price different point sets but must
        agree on the front — serialize byte-identically.
        """
        payload = {
            "kernel": self.kernel,
            "front": [
                {
                    "knobs": variant.knobs.describe(),
                    "target": variant.knobs.target,
                    "latency_s": variant.cost.latency_s,
                    "energy_j": variant.cost.energy_j,
                    "data_bytes": variant.cost.data_bytes,
                    "feasible": variant.cost.feasible,
                }
                for variant in self.front
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=indent,
                          separators=None if indent else (",", ":"))


class Explorer:
    """Runs one exploration strategy for one kernel.

    ``workers`` sets the width of the per-batch pool; 1 (the default)
    evaluates serially. ``workers_mode`` picks the pool flavor:
    ``"thread"`` (cheap, but GIL-bound for the pure-Python pricing) or
    ``"process"`` (true parallelism; work units are picklable knob
    points keyed by the module digest, and the parent keeps the cost
    cache so accounting matches serial). Any combination produces
    byte-identical results, traces and cost-cache statistics, and the
    same number of prepared-module lookups; how those split into hits
    and misses depends on which worker priced which point, because the
    points that run the same pass pipeline share one prepared module
    per process.
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
        self.prune = prune
        self._process_pool = None
        #: Content digest of the source module; accepted from the
        #: caller (the compiler hashes once per compile) or computed
        #: here — either way per-point cache lookups skip re-hashing.
        self._digest = digest if digest is not None else \
            module_digest(module)
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
        self._prune_lock = threading.Lock()

    # ------------------------------------------------------------------

    def _cost_for(self, knobs: VariantKnobs) -> CostEstimate:
        """Price one point (cache-aware, requirement-checked).

        Pure with respect to exploration state, so it is safe to run
        from batch worker threads; cost-cache hits return fresh
        estimates, making the in-place requirement rewrite private.

        Statically illegal points (a partition whose ports an unrolled
        access pattern provably over-subscribes) short-circuit before
        the cost model runs; the estimate they return is exactly what
        the cost model's own gate would have produced, so pruned and
        unpruned explorations serialize byte-identically.
        """
        pruned = self._static_estimate(knobs)
        if pruned is not None:
            return pruned
        cost = evaluate_variant(self.module, self.kernel, knobs,
                                self.model, digest=self._digest)
        return self._apply_requirements(cost)

    def _static_estimate(
        self, knobs: VariantKnobs
    ) -> Optional[CostEstimate]:
        """The prune verdict for one point, or None to price it."""
        conflict = partition_conflict(self._facts, knobs)
        if conflict is None:
            return None
        with self._prune_lock:
            self._pruned += 1
        return CostEstimate.infeasible(conflict)

    def _apply_requirements(self, cost: CostEstimate) -> CostEstimate:
        """Mark a priced estimate infeasible on requirement violation."""
        if cost.feasible:
            for requirement in self.requirements:
                measured = self._measure_for(requirement, cost)
                if measured is not None and not requirement.satisfied_by(
                    measured
                ):
                    cost.feasible = False
                    cost.infeasible_reason = (
                        f"violates {requirement.kind.value} "
                        f"requirement ({measured:.3g} vs "
                        f"{requirement.value:.3g})"
                    )
                    break
        return cost

    @staticmethod
    def _measure_for(requirement: Requirement, cost) -> Optional[float]:
        if requirement.kind in (RequirementKind.LATENCY,
                                RequirementKind.DEADLINE):
            return cost.latency_s
        if requirement.kind is RequirementKind.ENERGY:
            return cost.energy_j
        if requirement.kind is RequirementKind.THROUGHPUT:
            return 1.0 / max(cost.latency_s, 1e-30)
        return None

    def _admit(self, knobs: VariantKnobs, cost: CostEstimate,
               result: ExplorationResult, front: ParetoFront) -> Variant:
        """Record one priced point, in order, on the main thread."""
        variant = Variant(kernel=self.kernel, knobs=knobs, cost=cost)
        result.evaluated.append(variant)
        result.evaluations += 1
        front.add(variant)
        return variant

    def _evaluate_points(
        self,
        points: Sequence[VariantKnobs],
        result: ExplorationResult,
        front: ParetoFront,
    ) -> List[Variant]:
        """Evaluate ``points`` in fixed-size, possibly parallel batches.

        Returns the admitted variants in submission order — identical
        for every worker count.
        """
        tracer = current_tracer()
        admitted: List[Variant] = []
        parallel = self.workers > 1 and len(points) > 1
        executor = (
            ThreadPoolExecutor(max_workers=self.workers)
            if parallel and self.workers_mode == "thread" else None
        )
        try:
            for start in range(0, len(points), BATCH_SIZE):
                batch = list(points[start:start + BATCH_SIZE])
                with tracer.span(f"batch:{self.kernel}",
                                 category=DSE_CATEGORY) as span:
                    # Evaluation internals are hermetic: pricing runs
                    # under a muted observation so the trace shape
                    # depends on neither cache warmth (hits skip the
                    # pass pipeline entirely) nor worker threads
                    # (which must never touch the ambient tracer).
                    with observe(Observation()):
                        if parallel and self.workers_mode == "process":
                            costs = self._price_batch_process(batch)
                        elif executor is not None:
                            costs = list(
                                executor.map(self._cost_for, batch)
                            )
                        else:
                            costs = [
                                self._cost_for(knobs) for knobs in batch
                            ]
                    for knobs, cost in zip(batch, costs):
                        admitted.append(
                            self._admit(knobs, cost, result, front)
                        )
                    span.note(points=len(batch))
        finally:
            if executor is not None:
                executor.shutdown()
        return admitted

    def _ensure_process_pool(self):
        """Lazily create the worker pool, shipping the module once."""
        if self._process_pool is None:
            self._process_pool = create_pool(
                self.workers, print_module(self.module), self._digest,
                self.kernel, self.model,
            )
        return self._process_pool

    def close(self) -> None:
        """Release the process pool, if one was created."""
        if self._process_pool is not None:
            self._process_pool.shutdown()
            self._process_pool = None

    def _price_batch_process(
        self, batch: Sequence[VariantKnobs]
    ) -> List[CostEstimate]:
        """Price one batch on the process pool.

        The parent performs the static-prune check and the single
        cost-cache get/put per point — exactly the accounting a serial
        run does — and only cache-missing points are dispatched to the
        workers, which price with the cache-free
        :func:`~repro.core.dse.cost_model.price_variant` and return
        their prepared-cache stat deltas for merging. Results come back
        in batch order, so admission order matches serial.
        """
        cache = cost_cache()
        fingerprint = self.model.fingerprint()
        costs: List[Optional[CostEstimate]] = [None] * len(batch)
        remote: List[int] = []
        keys: Dict[int, str] = {}
        for index, knobs in enumerate(batch):
            cost = self._static_estimate(knobs)
            if cost is None:
                keys[index] = CostCache.key(
                    self._digest, self.kernel, knobs, fingerprint
                )
                cost = cached_estimate(cache, keys[index], knobs)
            if cost is None:
                remote.append(index)
            else:
                costs[index] = self._apply_requirements(cost)
        if remote:
            pool = self._ensure_process_pool()
            priced = list(pool.map(
                price_point, [batch[index] for index in remote]
            ))
            merged = prepared_cache().stats
            for index, (cost, child_delta) in zip(remote, priced):
                merged.add(child_delta)
                cache.put(keys[index], cost)
                costs[index] = self._apply_requirements(cost)
        return costs

    # ------------------------------------------------------------------

    def exhaustive(self) -> ExplorationResult:
        """Evaluate every point of the space."""
        result = ExplorationResult(kernel=self.kernel)
        front = ParetoFront()
        self._evaluate_points(list(self.space.points()), result, front)
        result.front = front.variants()
        return result

    def _bound_skippable(
        self, estimate: Tuple[float, float], front: ParetoFront
    ) -> bool:
        """Can this point provably never join the front?

        ``estimate`` is an analytic *lower* bound on the priced cost.
        If the bound already violates a requirement, the actual cost
        violates it too (latency/energy bounds are floors, the
        throughput bound a ceiling). If an already-priced front member
        dominates the bound, it also dominates the actual cost — with
        the same strict coordinate — so the point could neither join
        the front nor evict anyone from it.
        """
        lat_lb, en_lb = estimate
        synthetic = CostEstimate(
            latency_s=lat_lb, energy_j=en_lb, feasible=True,
        )
        for requirement in self.requirements:
            measured = self._measure_for(requirement, synthetic)
            if measured is not None and not requirement.satisfied_by(
                measured
            ):
                return True
        return any(
            member.cost.dominates(synthetic)
            for member in front.variants()
        )

    def _bound_exhaustive(self) -> ExplorationResult:
        """Exhaustive-front search that skips bound-dominated points.

        Points are priced best-bound-first so the scratch front gains
        strong members early and later (worse-bounded) points skip
        without pricing. Skip decisions happen on the main thread
        between batches, so batch composition — and with it the final
        result — is identical at every worker count. The final result
        re-admits the priced points in original space order, making a
        pruned run's ``front_json`` byte-identical to an unpruned one.
        """
        bounds = kernel_bounds(self.module, self.kernel, self._digest)
        if bounds is None:
            return self.exhaustive()
        points = list(self.space.points())
        estimates = [
            bound_for(bounds, knobs, self.model) for knobs in points
        ]
        order = sorted(
            range(len(points)),
            key=lambda i: (estimates[i][0], estimates[i][1], i),
        )
        scratch_result = ExplorationResult(kernel=self.kernel)
        scratch_front = ParetoFront()
        priced: Dict[int, CostEstimate] = {}
        pending = deque(order)
        while pending:
            batch: List[int] = []
            while pending and len(batch) < BOUND_BATCH_SIZE:
                index = pending.popleft()
                if self._bound_skippable(estimates[index],
                                         scratch_front):
                    self._bound_pruned += 1
                    continue
                batch.append(index)
            if not batch:
                continue
            variants = self._evaluate_points(
                [points[i] for i in batch],
                scratch_result, scratch_front,
            )
            for index, variant in zip(batch, variants):
                priced[index] = variant.cost
        result = ExplorationResult(kernel=self.kernel)
        front = ParetoFront()
        for index in range(len(points)):
            cost = priced.get(index)
            if cost is not None:
                self._admit(points[index], cost, result, front)
        result.front = front.variants()
        return result

    def random(self, budget: int = 16, seed: str = "dse"
               ) -> ExplorationResult:
        """Sample ``budget`` distinct points uniformly."""
        points = list(self.space.points())
        rng = deterministic_rng("dse-random", seed, self.kernel)
        count = min(budget, len(points))
        chosen = rng.choice(len(points), size=count, replace=False)
        result = ExplorationResult(kernel=self.kernel)
        front = ParetoFront()
        self._evaluate_points(
            [points[int(index)] for index in chosen], result, front
        )
        result.front = front.variants()
        return result

    def evolutionary(
        self,
        budget: int = 24,
        population: int = 4,
        seed: str = "dse",
    ) -> ExplorationResult:
        """(mu+lambda) single-knob-mutation search."""
        points = list(self.space.points())
        rng = deterministic_rng("dse-evo", seed, self.kernel)
        result = ExplorationResult(kernel=self.kernel)
        front = ParetoFront()
        # Unexplored points in space order, maintained incrementally:
        # dict preserves insertion order, so materializing the stall
        # fallback is O(|unseen|) instead of rescanning the whole
        # space against a ``seen`` set every stall iteration.
        unseen: Dict[VariantKnobs, None] = dict.fromkeys(points)

        def evaluate(knobs: VariantKnobs) -> Variant:
            unseen.pop(knobs, None)
            # Same hermetic pricing as the batched paths: the trace
            # must not depend on whether this point is a cache hit.
            with observe(Observation()):
                cost = self._cost_for(knobs)
            return self._admit(knobs, cost, result, front)

        initial_indices = rng.choice(
            len(points), size=min(population, len(points)), replace=False
        )
        initial = [points[int(i)] for i in initial_indices]
        for knobs in initial:
            unseen.pop(knobs, None)
        parents = self._evaluate_points(initial, result, front)

        while result.evaluations < budget:
            parents.sort(key=lambda v: (
                not v.cost.feasible, v.cost.latency_s * v.cost.energy_j
            ))
            parents = parents[:population]
            parent = parents[int(rng.integers(len(parents)))]
            neighbors = [
                knobs for knobs in neighborhood(parent.knobs, self.space)
                if knobs in unseen
            ]
            if not neighbors:
                remaining = list(unseen)
                if not remaining:
                    break
                choice = remaining[int(rng.integers(len(remaining)))]
            else:
                choice = neighbors[int(rng.integers(len(neighbors)))]
            parents.append(evaluate(choice))

        result.front = front.variants()
        return result

    def run(self, strategy: str = "exhaustive", **kwargs
            ) -> ExplorationResult:
        """Dispatch by strategy name; traces and meters the run."""
        tracer = current_tracer()
        if self.bound_guided and strategy != "exhaustive":
            raise DSEError(
                "bound-guided exploration requires the exhaustive "
                f"strategy, not {strategy!r}"
            )
        prepared_before = prepared_cache().stats.snapshot()
        cost_before = cost_cache().stats.snapshot()
        try:
            with tracer.span(f"explore:{self.kernel}",
                             category=DSE_CATEGORY,
                             strategy=strategy) as span:
                if strategy == "exhaustive":
                    result = (
                        self._bound_exhaustive() if self.bound_guided
                        else self.exhaustive()
                    )
                elif strategy == "random":
                    result = self.random(**kwargs)
                elif strategy == "evolutionary":
                    result = self.evolutionary(**kwargs)
                else:
                    raise DSEError(
                        f"unknown exploration strategy {strategy!r}"
                    )
                span.note(
                    evaluations=result.evaluations,
                    front=len(result.front),
                    feasible=len(result.feasible),
                    pruned=self._pruned,
                    bound_pruned=self._bound_pruned,
                )
        finally:
            self.close()
        if tracer.enabled and tracer.detailed:
            # Pareto-front growth curve: front size after each prefix
            # of the evaluation order, one counter sample per point —
            # replayed through the incremental front in O(n·front).
            growth = ParetoFront()
            front_size = 0
            for variant in result.evaluated:
                growth.add(variant)
                if len(growth) != front_size:
                    front_size = len(growth)
                    tracer.counter(
                        f"front:{self.kernel}", float(front_size),
                        category=DSE_CATEGORY,
                    )
        metrics = current_metrics()
        metrics.counter(
            "dse.evaluations", "design points evaluated",
        ).inc(result.evaluations, kernel=self.kernel,
              strategy=strategy)
        metrics.counter(
            "dse.front_points", "Pareto-optimal points found",
        ).inc(len(result.front), kernel=self.kernel)
        if self._pruned:
            metrics.counter(
                "dse.pruned_points",
                "points rejected statically before pricing",
            ).inc(self._pruned, kernel=self.kernel)
        if self._bound_pruned:
            metrics.counter(
                "dse.bound_pruned_points",
                "points skipped by analytic lower bound",
            ).inc(self._bound_pruned, kernel=self.kernel)
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
