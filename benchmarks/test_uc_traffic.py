"""Experiment uc-traffic — intelligent transportation (paper §VI-C).

Claims reproduced:

1. the traffic simulator "boosts the raw sensory data dataset into
   rich training sequences": training the speed model on simulated
   FCD cuts its prediction error;
2. PTDR tail estimates converge with Monte Carlo samples — accuracy
   costs compute, which bounds the requests/second a routing server
   can answer;
3. risk-aware (p90) routing picks different, safer routes than
   mean-fastest routing under congestion uncertainty;
4. the per-request sampling kernel offloaded to the FPGA raises the
   sustainable request rate ("improve the key processing components").
"""

from __future__ import annotations

import time

import pytest

from repro.apps.traffic.fcd import FCDGenerator
from repro.apps.traffic.od_matrix import gravity_demand
from repro.apps.traffic.prediction import SpeedModel
from repro.apps.traffic.road_graph import build_city
from repro.apps.traffic.routing import PTDRRouter, ptdr_flops
from repro.apps.traffic.simulator import TrafficSimulator
from repro.utils.tables import Table


@pytest.fixture(scope="module")
def setup():
    city = build_city(grid=8)
    demand = gravity_demand(city, zones=10, seed="bench")
    simulator = TrafficSimulator(city, demand, increments=3)
    rush = simulator.simulate_hour(8)
    generator = FCDGenerator(city, seed="bench")
    model = SpeedModel(city)
    return city, simulator, rush, generator, model


def test_uc_traffic_training_sequences(setup, benchmark):
    city, _simulator, rush, generator, model = setup
    true_speeds = {
        edge: rush.speed_ms(city, edge)
        for edge in list(rush.times_s)[:80]
    }

    table = Table(
        "uc-traffic: speed-model error vs simulated FCD volume",
        ["training vehicles", "probe points", "MAE m/s"],
    )
    errors = []
    cumulative_points = 0
    table.add_row(0, 0, model.mean_absolute_error(8, true_speeds))
    errors.append(model.mean_absolute_error(8, true_speeds))
    for step, vehicles in enumerate((40, 80, 160)):
        points = generator.generate_hour(
            rush, vehicles=vehicles, seed_offset=step * 10_000
        )
        cumulative_points += len(points)
        model.train(8, points)
        error = model.mean_absolute_error(8, true_speeds)
        errors.append(error)
        table.add_row(vehicles, cumulative_points, error)
    table.show()

    assert errors[-1] < 0.5 * errors[0], \
        "training on simulator output should halve the error"

    benchmark(
        lambda: generator.generate_hour(rush, vehicles=10,
                                        seed_offset=99_999)
    )


def test_uc_traffic_ptdr_convergence_and_rate(setup, benchmark):
    city, _simulator, rush, generator, model = setup
    model.train(8, generator.generate_hour(rush, vehicles=100))
    router = PTDRRouter(city, model, percentile=0.9, seed="conv")
    path = city.shortest_path((0, 0), (7, 7))
    segments = len(path) - 1

    counts = [50, 200, 1000, 5000]
    errors = router.percentile_convergence(
        path, 8.0, counts, reference_samples=20_000
    )

    # measured software sampling rate on this machine
    start = time.perf_counter()
    router.sample_path_times(path, 8.0, 2000, seed_key="rate")
    sw_seconds_per_sample = (time.perf_counter() - start) / 2000

    # FPGA sampling-engine estimate: one sample-segment per lane-cycle
    lanes, clock = 16, 250e6
    fpga_seconds_per_sample = segments / (lanes * clock)

    table = Table(
        "uc-traffic: PTDR accuracy vs samples, and server capacity "
        f"({segments}-segment route)",
        ["samples", "p90 error s", "MFLOP/req",
         "sw req/s", "fpga req/s"],
    )
    for count in counts:
        table.add_row(
            count,
            errors[count],
            ptdr_flops(count, segments) / 1e6,
            1.0 / (sw_seconds_per_sample * count),
            1.0 / (fpga_seconds_per_sample * count),
        )
    table.show()

    # claim 2: convergence with samples
    assert errors[5000] < errors[50]
    # claim 4: the accelerated engine sustains >100x the request rate
    assert fpga_seconds_per_sample * 200 < \
        sw_seconds_per_sample * 200 / 100

    benchmark(
        lambda: router.sample_path_times(path, 8.0, 200,
                                         seed_key="bench")
    )


def test_uc_traffic_approximate_autotuning(setup, benchmark):
    """mARGOt approximate computing [11] on the PTDR service: sample
    count becomes an accuracy/latency knob; the decision maker serves
    the cheapest variant meeting each client's quality floor."""
    from repro.core.variants import (
        CostEstimate,
        Variant,
        VariantKnobs,
    )
    from repro.runtime.autotuner.goals import Goal, GoalKind
    from repro.runtime.autotuner.knowledge import KnowledgeBase
    from repro.runtime.autotuner.manager import ApplicationManager

    city, _simulator, rush, generator, model = setup
    model.train(8, generator.generate_hour(rush, vehicles=100,
                                           seed_offset=42))
    router = PTDRRouter(city, model, percentile=0.9, seed="approx")
    path = city.shortest_path((0, 0), (7, 7))
    segments = len(path) - 1

    counts = [50, 200, 1000, 5000]
    errors = router.percentile_convergence(
        path, 8.0, counts, reference_samples=20_000, repeats=9
    )
    # quality scale: estimate error relative to the travel-time
    # spread (the tail is what the estimate is *for*)
    spread = max(
        float(router.sample_path_times(
            path, 8.0, 20_000, seed_key="ref").std()),
        1e-9,
    )

    knowledge = KnowledgeBase()
    lanes, clock = 16, 250e6
    for count in counts:
        latency = count * segments / (lanes * clock)
        accuracy = max(0.0, 1.0 - errors[count] / spread)
        knowledge.add_variant(Variant(
            kernel="ptdr",
            knobs=VariantKnobs(target="fpga", unroll=count),
            cost=CostEstimate(
                latency_s=latency,
                energy_j=latency * 2.0,
                accuracy=accuracy,
            ),
        ))

    table = Table(
        "uc-traffic: approximate PTDR service (accuracy floor -> "
        "selected samples, request rate)",
        ["accuracy floor", "samples served", "accuracy", "req/s"],
    )
    selections = {}
    floors = (0.5, 0.9, 0.95)
    for floor in floors:
        manager = ApplicationManager(knowledge, goal=Goal(
            GoalKind.PERFORMANCE, min_accuracy=floor))
        point = manager.select("ptdr")
        samples = point.variant.knobs.unroll
        selections[floor] = samples
        table.add_row(floor, samples, point.accuracy,
                      1.0 / point.predicted_latency_s)
    table.show()

    # stricter quality floors demand more samples (lower throughput)
    assert selections[floors[0]] <= selections[floors[1]] <= \
        selections[floors[2]]
    assert selections[floors[2]] > selections[floors[0]]

    benchmark(lambda: ApplicationManager(
        knowledge, goal=Goal(min_accuracy=0.95)).select("ptdr"))


def test_uc_traffic_risk_aware_choice(setup, benchmark):
    city, _simulator, rush, _generator, _model = setup
    # fresh model with a fixed training history so the experiment is
    # self-contained and reproducible
    generator = FCDGenerator(city, seed="bench")
    model = SpeedModel(city)
    for offset in range(3):
        model.train(8, generator.generate_hour(
            rush, vehicles=120, seed_offset=offset * 1000
        ))
    router = PTDRRouter(city, model, percentile=0.95, seed="probe")

    differing = 0
    queries = [
        ((0, 0), (7, 4)), ((0, 0), (5, 5)), ((0, 0), (4, 7)),
        ((3, 0), (7, 4)), ((0, 0), (2, 5)), ((0, 0), (7, 0)),
    ]
    table = Table(
        "uc-traffic: mean-fastest vs p95-safest route per query",
        ["query", "mean-best p95 s", "p95-best p95 s", "same route"],
    )
    for origin, destination in queries:
        choices = router.route(origin, destination, 8.0,
                               k_alternatives=5, samples=400)
        by_mean = min(choices, key=lambda c: c.mean_s)
        by_p95 = choices[0]
        same = by_mean.path == by_p95.path
        if not same:
            differing += 1
        table.add_row(
            f"{origin}->{destination}",
            by_mean.percentile_s,
            by_p95.percentile_s,
            same,
        )
        # the p95 choice never has a worse p95 than the mean choice
        assert by_p95.percentile_s <= by_mean.percentile_s + 1e-9
    table.show()
    print(f"queries where risk-aware differs from mean-fastest: "
          f"{differing}/{len(queries)}")
    # risk-aware routing makes a real difference under congestion
    assert differing >= 2

    benchmark(lambda: router.best_route((0, 0), (7, 7), 8.0,
                                        samples=100))
