"""Probabilistic time-dependent routing (PTDR).

The Monte Carlo routing of Vitali et al. [37] and Golasowski et al.
[41]: for each candidate path, sample per-segment speeds from the
prediction model's time-dependent distributions, advance a virtual
clock across hour boundaries, and score paths by a travel-time
percentile rather than the mean — risk-aware routing. The Monte Carlo
sample count is the paper's accuracy/latency knob (the kernel EVEREST
accelerates server-side).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.apps.traffic.prediction import SpeedModel
from repro.apps.traffic.road_graph import CityGraph
from repro.utils.rng import deterministic_rng
from repro.utils.validation import check_in_range, check_positive


@dataclass
class RouteChoice:
    """Scored candidate route."""

    path: List
    samples: np.ndarray  # travel-time samples (seconds)
    percentile_s: float
    mean_s: float

    @property
    def std_s(self) -> float:
        """Spread of the sampled travel times."""
        return float(self.samples.std())

    def on_time_probability(self, budget_s: float) -> float:
        """P(travel time <= budget)."""
        return float(np.mean(self.samples <= budget_s))


class PTDRRouter:
    """Monte Carlo risk-aware router over a speed model."""

    def __init__(
        self,
        city: CityGraph,
        model: SpeedModel,
        percentile: float = 0.9,
        seed: str = "ptdr",
    ):
        check_in_range("percentile", percentile, 0.0, 1.0)
        self.city = city
        self.model = model
        self.percentile = percentile
        self.seed = seed

    # ------------------------------------------------------------------

    def sample_path_times(
        self,
        path: List,
        depart_hour: float,
        samples: int,
        seed_key: object = 0,
    ) -> np.ndarray:
        """Monte Carlo travel-time samples for one path.

        Each sample draws truncated-normal segment speeds; the clock
        advances through hour boundaries so later segments use the
        distribution of the hour they are actually traversed in.
        """
        check_positive("samples", samples)
        rng = deterministic_rng(
            "ptdr", self.seed, seed_key, repr(path[0]), repr(path[-1])
        )
        edges = self.city.path_segments(path)
        result = np.zeros(samples)
        for sample_index in range(samples):
            clock_h = depart_hour
            total_s = 0.0
            for edge in edges:
                hour = int(clock_h) % 24
                mean, std = self.model.predict(edge, hour)
                speed = rng.normal(mean, std)
                floor = 0.15 * max(mean, 0.5)
                speed = max(speed, floor)
                segment = self.city.segment(*edge)
                time_s = segment.length_m / speed
                total_s += time_s
                clock_h += time_s / 3600.0
            result[sample_index] = total_s
        return result

    def candidate_paths(
        self, origin, destination, depart_hour: float, k: int
    ) -> List[List]:
        """K loop-free alternatives by *predicted* congested time.

        Routing on the traffic model (not free-flow geometry) is what
        surfaces structurally different alternatives around congested
        areas — e.g. the stable ring versus the stop-and-go center.
        """
        import networkx as nx

        hour = int(depart_hour) % 24
        working = self.city.graph.copy()
        for a, b in working.edges:
            working.edges[a, b]["predicted"] = self.model.predict_time(
                (a, b), hour
            )
        generator = nx.shortest_simple_paths(
            working, origin, destination, weight="predicted"
        )
        paths = []
        for path in generator:
            paths.append(path)
            if len(paths) >= k:
                break
        return paths

    def route(
        self,
        origin,
        destination,
        depart_hour: float,
        k_alternatives: int = 3,
        samples: int = 200,
    ) -> List[RouteChoice]:
        """Score k alternatives; best (lowest percentile) first."""
        paths = self.candidate_paths(
            origin, destination, depart_hour, k_alternatives
        )
        choices = []
        for index, path in enumerate(paths):
            sampled = self.sample_path_times(
                path, depart_hour, samples, seed_key=index
            )
            choices.append(RouteChoice(
                path=path,
                samples=sampled,
                percentile_s=float(
                    np.quantile(sampled, self.percentile)
                ),
                mean_s=float(sampled.mean()),
            ))
        choices.sort(key=lambda choice: choice.percentile_s)
        return choices

    def best_route(self, origin, destination, depart_hour: float,
                   samples: int = 200) -> RouteChoice:
        """The top-ranked alternative."""
        return self.route(
            origin, destination, depart_hour, samples=samples
        )[0]

    # ------------------------------------------------------------------

    def percentile_convergence(
        self,
        path: List,
        depart_hour: float,
        sample_counts: List[int],
        reference_samples: int = 20_000,
        repeats: int = 1,
    ) -> Dict[int, float]:
        """Mean |percentile estimate - reference| per sample count.

        The accuracy-vs-samples curve that motivates hardware
        acceleration: more samples, better tail estimates, more
        compute per request. ``repeats`` averages the error over
        independent estimates (one Monte Carlo draw of the error is
        itself noisy).
        """
        check_positive("repeats", repeats)
        reference = float(np.quantile(
            self.sample_path_times(
                path, depart_hour, reference_samples, seed_key="ref"
            ),
            self.percentile,
        ))
        errors = {}
        for count in sample_counts:
            trials = []
            for repeat in range(repeats):
                estimate = float(np.quantile(
                    self.sample_path_times(
                        path, depart_hour, count,
                        seed_key=f"c{count}r{repeat}",
                    ),
                    self.percentile,
                ))
                trials.append(abs(estimate - reference))
            errors[count] = float(np.mean(trials))
        return errors


def ptdr_flops(samples: int, segments: int) -> float:
    """Arithmetic cost of one PTDR request (per-sample per-segment)."""
    return float(samples) * segments * 25.0
