"""Pareto-front utilities over variant cost estimates.

:class:`ParetoFront` maintains the feasible non-dominated set
*incrementally*: each :meth:`ParetoFront.add` costs O(front) instead of
recomputing an O(n²) batch front, which turns the explorer's
front-growth curve from O(n³) into O(n·front). :func:`pareto_front`
is the batch entry point, now a thin wrapper over the incremental
structure — both produce identical fronts (same variants, same order).
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from repro.core.variants import Variant
from repro.diagnostics import diagnosed_error
from repro.errors import DSEError

#: Cost coordinates are deduplicated at this rounding, matching the
#: historical batch behavior.
_DEDUPE_DIGITS = 12


def _cost_key(variant: Variant) -> Tuple[float, float]:
    return (round(variant.cost.latency_s, _DEDUPE_DIGITS),
            round(variant.cost.energy_j, _DEDUPE_DIGITS))


class ParetoFront:
    """Incrementally maintained feasible non-dominated set.

    Invariants match the batch :func:`pareto_front`: members are kept
    in insertion order and infeasible variants are never admitted.
    Dominance is tested first: a newcomer some member dominates is
    dropped, and one that dominates members replaces them, even a
    member whose (rounded) cost coordinates it shares. Only then is a
    newcomer that duplicates a remaining member's rounded coordinates
    dropped. Dominance is transitive, so rejecting a newcomer against
    the current front is equivalent to testing it against everything
    ever seen.
    """

    def __init__(self, variants: Sequence[Variant] = ()):
        self._members: List[Variant] = []
        self._keys: Set[Tuple[float, float]] = set()
        for variant in variants:
            self.add(variant)

    def add(self, variant: Variant) -> bool:
        """Offer one variant; returns True when the front changed."""
        if not variant.cost.feasible:
            return False
        cost = variant.cost
        survivors, dropped = [], set()
        for member in self._members:
            if member.cost.dominates(cost):
                return False
            if cost.dominates(member.cost):
                dropped.add(_cost_key(member))
            else:
                survivors.append(member)
        key = _cost_key(variant)
        if key in self._keys and key not in dropped:
            return False
        self._members = survivors + [variant]
        self._keys = (self._keys - dropped) | {key}
        return True

    def variants(self) -> List[Variant]:
        """The current front, in insertion order (a copy)."""
        return list(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self):
        return iter(self._members)

    def __contains__(self, variant: Variant) -> bool:
        return any(member is variant for member in self._members)


def pareto_front(variants: Sequence[Variant]) -> List[Variant]:
    """Feasible, non-dominated variants on (latency, energy).

    Stable: preserves input order among the survivors.
    """
    return ParetoFront(variants).variants()


def knee_point(variants: Sequence[Variant]) -> Variant:
    """The balanced variant: minimal normalized distance to utopia."""
    front = pareto_front(list(variants))
    if not front:
        raise diagnosed_error(
            DSEError, "DSE001", "no feasible variants", "", "dse")
    min_latency = min(v.cost.latency_s for v in front)
    max_latency = max(v.cost.latency_s for v in front)
    min_energy = min(v.cost.energy_j for v in front)
    max_energy = max(v.cost.energy_j for v in front)

    def distance(variant: Variant) -> float:
        latency_span = max(max_latency - min_latency, 1e-30)
        energy_span = max(max_energy - min_energy, 1e-30)
        dl = (variant.cost.latency_s - min_latency) / latency_span
        de = (variant.cost.energy_j - min_energy) / energy_span
        return dl * dl + de * de

    return min(front, key=distance)
