"""One pricing and one exploration per oracle case, per session.

The autouse ``_isolated_dse_caches`` empties the process-wide caches
around every test, so what one case's pricing leaves behind cannot be
shared between tests as objects. :func:`priced` therefore records
plain data only — encoded estimates, printed modules and counts — the
first time a test asks for a case, and every later test reads that
record.
"""

from dataclasses import dataclass
from functools import cache

import pytest

from repro.core.dse import cost_model
from repro.core.dse.cache import clear_caches, prepared_cache
from repro.core.dse.cost_model import prepare_variant_module, price_variant
from repro.core.dse.explorer import Explorer
from repro.core.hls import bambu, cdfg
from repro.core.ir import print_module
from repro.core.ir.digest import module_digest
from repro.core.store import encode
from repro.core.variants import CostEstimate, Variant, VariantKnobs
from tests.dse.oracle import (
    ATTEMPTS, CASES, MODEL, ORDERS, distinct_builds, fresh_estimate,
    outcome, recipe_outcomes, schedule_violations)


def make_variant(latency, energy, feasible=True):
    return Variant(
        kernel="k",
        knobs=VariantKnobs(),
        cost=CostEstimate(latency_s=latency, energy_j=energy,
                          feasible=feasible),
    )


@dataclass(frozen=True)
class Record:
    """What one case priced and explored to."""

    #: ``{(order, attempt): {knobs: outcome}}``; clock-first starts from
    #: prepared modules nothing synthesized from, clock-last from
    #: ``clear_caches()`` of the clock-first's warm memo
    priced: dict
    #: ``{(order, attempt): {"synthesize" | "cdfg" | "fsmd" | "prepare":
    #: calls}}``: HLS syntheses, CDFG and FSMD builds, prepared-module
    #: misses
    builds: dict
    #: ``{knobs: outcome}`` of the annotating recipe (clock-first)
    recipe: dict
    #: ``{id: (version, digest, text)}`` of the prepared modules before
    #: and after both clock-first pricings
    prepared: tuple
    #: prepared-module misses preparing every point of the space
    space_prepare_misses: int
    #: ``(designs checked, violations)``: the one-copy schedules of
    #: every design synthesized, by :func:`schedule_violations`
    legality: tuple
    #: what one cold pricing may build (:func:`distinct_builds`)
    distinct: dict
    #: explored cases only: ``{knobs: encoded fresh estimate}``
    fresh: dict = None
    #: ``{knobs: (printed alone, printed as handed out)}`` per point of
    #: the space
    prepared_texts: dict = None
    #: an exhaustive exploration after the pricings (cost cache empty,
    #: synthesis memo warm): its JSON, front, builds and ``{knobs:
    #: encoded estimate}`` of its FPGA points
    explored: dict = None
    #: builds after synthesizing a design outside pricing, and after
    #: asking it twice for its RTL
    design_builds: dict = None


class _Counts(dict):
    """Calls of the HLS driver and of its CDFG and FSMD builders, and
    prepared-module misses."""

    def __init__(self, patch):
        super().__init__(synthesize=0, cdfg=0, fsmd=0)
        self.checked, self.violations = 0, []
        for owner, name, kind in ((cost_model, "synthesize", "synthesize"),
                                  (cdfg, "build_cdfg", "cdfg"),
                                  (bambu, "build_fsmd", "fsmd")):
            patch.setattr(owner, name, self._counting(
                kind, getattr(owner, name)))

    def _counting(self, kind, build):
        def call(*args, **kwargs):
            self[kind] += 1
            built = build(*args, **kwargs)
            if kind == "synthesize":
                self.checked += 1
                self.violations += schedule_violations(built)
            return built
        return call

    def snapshot(self):
        return dict(self, prepare=prepared_cache().stats.misses)

    def since(self, snapshot):
        now = self.snapshot()
        return {kind: now[kind] - snapshot[kind] for kind in now}


def _states(modules):
    distinct = {id(shared): shared for shared in modules}
    return {key: (shared.op.version, module_digest(shared),
                  print_module(shared)) for key, shared in distinct.items()}


def _record(case):
    module, kernel = case.build()
    distinct = distinct_builds(module, kernel, case.designs)
    points = case.points()
    space = list(case.space.points()) if case.space else points
    extra = {}
    with pytest.MonkeyPatch.context() as patch:
        counts = _Counts(patch)
        if case.space is not None:
            fresh, alone = {}, {}
            for knobs in dict.fromkeys(points + space):
                if knobs.target == "fpga":
                    # leaves cached the one module it prepared, alone
                    fresh[knobs] = encode(
                        fresh_estimate(module, kernel, knobs))
                else:
                    clear_caches()
                alone[knobs] = print_module(
                    prepare_variant_module(module, kernel, knobs))
            extra["fresh"] = fresh

        clear_caches()
        snapshot = counts.snapshot()
        handed = {knobs: prepare_variant_module(module, kernel, knobs)
                  for knobs in space}
        space_prepare_misses = counts.since(snapshot)["prepare"]
        before = _states(handed.values())
        priced, builds = {}, {}
        for order in ORDERS:
            if order == "clock-last":
                prepared = (before, _states(handed.values()))
                clear_caches()
            ordered = case.points(clock_first=order == "clock-first")
            for attempt in ATTEMPTS:
                snapshot = counts.snapshot()
                priced[order, attempt] = {knobs: outcome(
                    lambda: price_variant(module, kernel, knobs, MODEL))
                    for knobs in ordered}
                builds[order, attempt] = counts.since(snapshot)

        if case.space is not None:
            snapshot = counts.snapshot()
            result = Explorer(module, kernel, space=case.space).run(
                "exhaustive")
            extra["explored"] = {
                "json": result.to_json(), "front": result.front_json(),
                "builds": counts.since(snapshot),
                "priced": {variant.knobs: encode(variant.cost)
                           for variant in result.evaluated
                           if variant.knobs.target == "fpga"}}
            # a design built outside pricing, then its RTL
            snapshot = counts.snapshot()
            design = cost_model.synthesize_variant(
                module, kernel, VariantKnobs(target="fpga", unroll=2))
            built = counts.since(snapshot)
            repeatable = design.rtl() == design.rtl()
            extra["design_builds"] = {"design": built,
                                      "rtl": counts.since(snapshot),
                                      "rtl repeatable": repeatable}
            extra["prepared_texts"] = {
                knobs: (alone[knobs], before[id(shared)][2])
                for knobs, shared in handed.items()}
        recipe = recipe_outcomes(module, kernel, points, patch)
    clear_caches()
    return Record(priced, builds, recipe, prepared, space_prepare_misses,
                  (counts.checked, counts.violations), distinct, **extra)


@pytest.fixture(scope="session")
def priced():
    """``priced(case id)`` is the case's :class:`Record`, recorded on
    first use."""
    return cache(lambda id: _record(CASES[id]))
