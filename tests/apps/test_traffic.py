"""Tests for the traffic use-case substrate."""

import math

import numpy as np
import pytest

from repro.apps.traffic.fcd import (
    FCDGenerator,
    GPS_NOISE_M,
    PROBE_PERIOD_S,
    aggregate_speeds,
)
from repro.apps.traffic.od_matrix import (
    DAILY_TRIPS,
    diurnal_profile,
    gravity_demand,
)
from repro.apps.traffic.prediction import SpeedModel
from repro.apps.traffic.road_graph import build_city
from repro.apps.traffic.routing import PTDRRouter, ptdr_flops
from repro.apps.traffic.simulator import TrafficSimulator, bpr_time
from repro.errors import SpecificationError


@pytest.fixture(scope="module")
def city():
    return build_city(grid=6)


@pytest.fixture(scope="module")
def rush_state(city):
    od = gravity_demand(city, zones=8, seed="t")
    return TrafficSimulator(city, od, increments=3).simulate_hour(8)


class TestCityGraph:
    def test_structure(self, city):
        assert city.num_nodes == 36
        assert city.num_segments > 100

    def test_ring_faster_than_streets(self, city):
        kinds = {
            segment.kind: segment.free_speed_ms
            for _a, _b, segment in city.segments()
        }
        assert kinds["ring"] > kinds["street"]

    def test_bidirectional(self, city):
        segment = city.segment((0, 0), (0, 1))
        reverse = city.segment((0, 1), (0, 0))
        assert segment.length_m == reverse.length_m

    def test_unknown_segment_rejected(self, city):
        with pytest.raises(SpecificationError):
            city.segment((0, 0), (5, 5))

    def test_tiny_grid_rejected(self):
        with pytest.raises(SpecificationError):
            build_city(grid=2)


class TestDemand:
    def test_diurnal_peaks(self):
        assert diurnal_profile(8) > diurnal_profile(3)
        assert diurnal_profile(17) > diurnal_profile(13)

    def test_gravity_total(self, city):
        od = gravity_demand(city, zones=8)
        assert sum(od.pairs.values()) == pytest.approx(DAILY_TRIPS / 24)

    def test_scaled(self, city):
        od = gravity_demand(city, zones=6)
        assert sum(od.scaled(2.0).pairs.values()) == pytest.approx(
            2 * sum(od.pairs.values())
        )

    def test_too_many_zones_rejected(self, city):
        with pytest.raises(ValueError):
            gravity_demand(city, zones=1000)


class TestSimulator:
    def test_bpr_monotone(self):
        assert bpr_time(10.0, 0.0, 1000.0) == pytest.approx(10.0)
        assert bpr_time(10.0, 2000.0, 1000.0) > bpr_time(
            10.0, 500.0, 1000.0
        )

    def test_rush_hour_congested(self, city, rush_state):
        assert rush_state.congestion_index(city) > 1.2

    def test_night_free_flow(self, city):
        od = gravity_demand(city, zones=8, seed="t")
        night = TrafficSimulator(city, od,
                                 increments=3).simulate_hour(3)
        assert night.congestion_index(city) < 1.1

    def test_congested_speed_below_free(self, city, rush_state):
        ratios = [
            rush_state.speed_ms(city, edge)
            / city.segment(*edge).free_speed_ms
            for edge in rush_state.times_s
        ]
        assert max(ratios) <= 1.0 + 1e-12 and min(ratios) < 1.0


class TestFCD:
    def test_probe_cadence(self, city, rush_state):
        generator = FCDGenerator(city)
        path = city.shortest_path((0, 0), (5, 5))
        points = generator.drive(rush_state, path, vehicle_id=1)
        trip_s = sum(rush_state.times_s[edge]
                     for edge in city.path_segments(path))
        # one probe at departure, then one every period until arrival
        assert len(points) == math.ceil(trip_s / PROBE_PERIOD_S)

    def test_positions_near_path(self, city, rush_state):
        generator = FCDGenerator(city)
        path = city.shortest_path((0, 0), (0, 5))
        points = generator.drive(rush_state, path, vehicle_id=2)
        # straight east-west path: y stays within the GPS noise of zero
        assert all(abs(point.y_m) < 5 * GPS_NOISE_M for point in points)

    def test_hour_generation_volume(self, city, rush_state):
        generator = FCDGenerator(city)
        points = generator.generate_hour(rush_state, vehicles=30)
        assert len(points) > 100

    def test_aggregate_speeds(self, city, rush_state):
        generator = FCDGenerator(city)
        points = generator.generate_hour(rush_state, vehicles=30)
        aggregated = aggregate_speeds(points)
        for edge, (mean, _std, count) in aggregated.items():
            assert count >= 1
            assert 0 <= mean <= 30


class TestSpeedModel:
    def test_training_improves_mae(self, city, rush_state):
        generator = FCDGenerator(city)
        model = SpeedModel(city)
        true_speeds = {
            edge: rush_state.speed_ms(city, edge)
            for edge in list(rush_state.times_s)[:60]
        }
        untrained = model.mean_absolute_error(8, true_speeds)
        for offset in range(3):
            points = generator.generate_hour(
                rush_state, vehicles=50, seed_offset=offset * 1000
            )
            model.train(8, points)
        trained = model.mean_absolute_error(8, true_speeds)
        assert trained < untrained

    def test_untrained_prior_reasonable(self, city):
        model = SpeedModel(city)
        edge = ((0, 0), (0, 1))
        mean, std = model.predict(edge, 8)
        free = city.segment(*edge).free_speed_ms
        assert 0 < mean <= free
        assert std > 0


class TestPTDR:
    @pytest.fixture(scope="class")
    def router(self, city, rush_state):
        generator = FCDGenerator(city)
        model = SpeedModel(city)
        model.train(
            8, generator.generate_hour(rush_state, vehicles=60)
        )
        return PTDRRouter(city, model, percentile=0.9)

    def test_route_returns_sorted_choices(self, router):
        choices = router.route((0, 0), (5, 5), depart_hour=8.0,
                               samples=100)
        percentiles = [choice.percentile_s for choice in choices]
        assert percentiles == sorted(percentiles)

    def test_percentile_above_mean(self, router):
        choice = router.best_route((0, 0), (5, 5), depart_hour=8.0,
                                   samples=200)
        assert choice.percentile_s >= choice.mean_s

    def test_on_time_probability_monotone(self, router):
        choice = router.best_route((0, 0), (5, 5), depart_hour=8.0,
                                   samples=200)
        tight = choice.on_time_probability(choice.mean_s * 0.8)
        loose = choice.on_time_probability(choice.mean_s * 1.5)
        assert tight <= loose

    def test_more_samples_converge(self, router, city):
        path = city.shortest_path((0, 0), (5, 5))
        errors = router.percentile_convergence(
            path, 8.0, [20, 2000], reference_samples=8000
        )
        assert errors[2000] < errors[20]

    def test_sampling_deterministic(self, router, city):
        path = city.shortest_path((0, 0), (5, 5))
        a = router.sample_path_times(path, 8.0, 50, seed_key=1)
        b = router.sample_path_times(path, 8.0, 50, seed_key=1)
        assert np.array_equal(a, b)

    def test_flops_model(self):
        assert ptdr_flops(1000, 10) > ptdr_flops(100, 10)
