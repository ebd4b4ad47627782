"""``BENCHMARK.json`` is the one declaration of workloads and metrics.

The harness reads names, units, bounds and the run length from it
rather than keeping a second list that could drift.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Dict, List

from benchmarks.e2e import ROOT


@lru_cache(maxsize=1)
def load() -> Dict:
    """The parsed ``BENCHMARK.json`` of this checkout."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def workload_names() -> List[str]:
    """Declared workloads, in declaration order."""
    return [entry["name"] for entry in load()["workloads"]]


def end_to_end() -> Dict[str, Dict]:
    """Declared end-to-end metrics by name."""
    return {entry["name"]: entry for entry in load()["end_to_end"]}


def per_layer() -> Dict[str, Dict]:
    """Declared per-layer metrics by name."""
    return {entry["name"]: entry for entry in load()["per_layer"]}


def run_seconds() -> int:
    """How long one contract run measures."""
    return int(load()["run_seconds"])
