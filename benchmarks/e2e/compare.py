"""``compare A.json B.json``: did B get worse than A, per metric?

Both files are full reports written by ``run --out``. For every
(workload, end-to-end metric) one row gives both medians, the ratio
with its base, the metric's bound from ``BENCHMARK.json`` and a
verdict:

``same``        B's median is within the bound of A's.
``worse``       B's median is worse than A's by more than the bound.
``better``      B's median is better than A's by more than the bound.
``unresolved``  the run-to-run spread (first to third quartile over
                the median, the wider of the two sides) exceeds the
                bound and the two sides' runs overlap, so the medians
                cannot be told apart; or a side has a single run
                (``run --runs N`` makes more) and the medians differ
                by more than the bound.

Deterministic results — input digest, ops attempted, failed ops,
simulated makespans, knee latencies, every count — must be *equal*
when both reports used the same seed and run length; a difference is
reported as ``worse``. Exit status 1 on any ``worse``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from benchmarks.e2e import spec
from benchmarks.e2e.stats import quartile_spread


def worse_by(before: float, after: float, better: str) -> float:
    """Share of ``before`` by which ``after`` is worse (negative: better)."""
    if not before:
        return 0.0
    change = (after - before) / abs(before)
    return change if better == "lower" else -change


def verdict(before: Sequence[float], after: Sequence[float],
            better: str, bound: float) -> Tuple[str, float, float]:
    """``(verdict, ratio after/before, spread)`` for one metric."""
    base = statistics.median(before)
    new = statistics.median(after)
    ratio = new / base if base else float("nan")
    spread = max(quartile_spread(before), quartile_spread(after))
    delta = worse_by(base, new, better)
    if min(len(before), len(after)) < 2:
        # one run a side says nothing about the run-to-run spread
        outcome = "same" if abs(delta) <= bound else "unresolved"
        return outcome, ratio, spread
    if spread > bound:
        def all_worse(ours, theirs) -> bool:
            return all(worse_by(b, a, better) > 0
                       for a in ours for b in theirs)

        if delta > bound and all_worse(after, before):
            return "worse", ratio, spread
        if all_worse(before, after):
            return "better", ratio, spread
        return "unresolved", ratio, spread
    if delta > bound:
        return "worse", ratio, spread
    if delta < -bound:
        return "better", ratio, spread
    return "same", ratio, spread


def _exact_facts(record: Dict) -> Dict:
    facts = dict(record["detail"].get("deterministic", {}))
    facts["input_digest"] = record["detail"].get("input_digest")
    facts["attempted"] = record["attempted"]
    facts["failed"] = record["failed"]
    return facts


def compare_reports(before: Dict, after: Dict) -> Tuple[List[str], bool]:
    """Rows of the comparison table, and whether anything got worse."""
    declared = spec.end_to_end()
    same_inputs = (before["seed"] == after["seed"]
                   and before["seconds"] == after["seconds"])
    rows = [
        f"{'workload':16s} {'metric':22s} {'A median':>12s} "
        f"{'B median':>12s} {'B/A':>7s} {'bound':>6s} "
        f"{'spread':>7s}  verdict",
    ]
    any_worse = False
    for name in spec.workload_names():
        ours = before["workloads"].get(name)
        theirs = after["workloads"].get(name)
        if not ours or not theirs:
            continue
        runs_a, runs_b = ours["end_to_end"], theirs["end_to_end"]
        if not runs_a or not runs_b:
            rows.append(f"{name:16s} no completed runs to compare")
            any_worse = True
            continue
        for metric, entry in declared.items():
            values_a = [run["metrics"][metric] for run in runs_a]
            values_b = [run["metrics"][metric] for run in runs_b]
            outcome, ratio, spread = verdict(
                values_a, values_b, entry["better"], entry["bound"])
            any_worse |= outcome == "worse"
            rows.append(
                f"{name:16s} {metric:22s} "
                f"{statistics.median(values_a):12.5g} "
                f"{statistics.median(values_b):12.5g} "
                f"{ratio:7.3f} {entry['bound']:6.2f} {spread:7.3f}  "
                f"{outcome}"
            )
        if any(run["failed"] for run in runs_b):
            any_worse = True
            rows.append(f"{name:16s} failed ops in B  worse")
        if not same_inputs:
            continue
        for key in ("end_to_end", "per_layer"):
            facts_a = [_exact_facts(run) for run in ours[key]]
            facts_b = [_exact_facts(run) for run in theirs[key]]
            reference = facts_a[0]
            differing = sorted(
                fact for facts in facts_a + facts_b
                for fact in set(reference) | set(facts)
                if facts.get(fact) != reference.get(fact)
            )
            outcome = "worse" if differing else "same"
            any_worse |= bool(differing)
            rows.append(
                f"{name:16s} exact results ({key})"
                f"{'':24s} {outcome}"
                + (f"  differs: {', '.join(sorted(set(differing)))}"
                   if differing else "")
            )
    if not same_inputs:
        rows.append("seeds or run lengths differ: exact results "
                    "not compared")
    return rows, any_worse


def compare_files(before: Path, after: Path) -> int:
    """Print the comparison of two report files; exit status."""
    rows, any_worse = compare_reports(
        json.loads(Path(before).read_text()),
        json.loads(Path(after).read_text()),
    )
    print("\n".join(rows))
    print("ratio B/A has A's median as its base; a timing is worse "
          "when higher, a rate when lower")
    return 1 if any_worse else 0
