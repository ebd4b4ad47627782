"""Tests for the air-quality use-case substrate."""

import math

import numpy as np
import pytest

from repro.apps.airquality.emissions import (
    EmissionSource,
    IndustrialSite,
    default_site,
)
from repro.apps.airquality.forecast import (
    ABATE_PROBABILITY,
    REDUCE_PROBABILITY,
    AirQualityForecast,
    ForecastDecision,
    synth_weather_members,
)
from repro.apps.airquality.plume import (
    GaussianPlume,
    StabilityClass,
    concentration_grid,
    sigma_y,
    sigma_z,
    stability_from_weather,
)
from repro.apps.airquality.sensors import SensorNetwork


class TestEmissions:
    def test_scaled_source(self):
        source = EmissionSource("s", 0, 0, 50.0, 100.0)
        assert source.scaled(0.5).rate_g_per_s == 50.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            EmissionSource("s", 0, 0, 50.0, -1.0)

    def test_site_activity_profile(self):
        site = default_site()
        night = site.total_rate_g_per_s(2)
        day = site.total_rate_g_per_s(10)
        assert day > night

    def test_throttle_scales(self):
        site = default_site()
        full = site.total_rate_g_per_s(10)
        sources = site.sources_at_hour(10, throttle=0.5)
        assert sum(s.rate_g_per_s for s in sources) == pytest.approx(
            full * 0.5
        )

    def test_empty_site_rejected(self):
        with pytest.raises(ValueError):
            IndustrialSite("x", sources=[])

    def test_bad_profile_rejected(self):
        with pytest.raises(ValueError):
            IndustrialSite(
                "x",
                sources=[EmissionSource("s", 0, 0, 10.0, 1.0)],
                activity_profile=np.ones(10),
            )


class TestPlumePhysics:
    def test_sigma_monotone_with_distance(self):
        x = np.array([100.0, 1000.0, 5000.0])
        for stability in StabilityClass:
            assert np.all(np.diff(sigma_y(x, stability)) > 0)
            assert np.all(np.diff(sigma_z(x, stability)) > 0)

    def test_unstable_disperses_more(self):
        x = np.array([2000.0])
        assert sigma_z(x, StabilityClass.A) > sigma_z(
            x, StabilityClass.F
        )

    def test_no_concentration_upwind(self):
        source = EmissionSource("s", 0, 0, 50.0, 100.0)
        plume = GaussianPlume(source, wind_ms=5.0, wind_dir_rad=0.0)
        upwind = plume.concentration(
            np.array([-1000.0]), np.array([0.0])
        )
        assert upwind[0] == 0.0

    def test_centerline_maximal(self):
        source = EmissionSource("s", 0, 0, 50.0, 100.0)
        plume = GaussianPlume(source, wind_ms=5.0, wind_dir_rad=0.0)
        x = np.array([2000.0, 2000.0, 2000.0])
        y = np.array([0.0, 300.0, -300.0])
        concentration = plume.concentration(x, y)
        assert concentration[0] > concentration[1]
        assert concentration[1] == pytest.approx(concentration[2])

    def test_stronger_wind_dilutes_far_field(self):
        source = EmissionSource("s", 0, 0, 50.0, 100.0)
        x = np.array([5000.0])
        y = np.array([0.0])
        weak = GaussianPlume(source, 2.0, 0.0,
                             StabilityClass.D).concentration(x, y)
        strong = GaussianPlume(source, 8.0, 0.0,
                               StabilityClass.D).concentration(x, y)
        assert strong[0] < weak[0]

    def test_higher_stack_lower_ground_level(self):
        x = np.array([1500.0])
        y = np.array([0.0])
        low = GaussianPlume(
            EmissionSource("l", 0, 0, 20.0, 100.0), 5.0, 0.0
        ).concentration(x, y)
        high = GaussianPlume(
            EmissionSource("h", 0, 0, 120.0, 100.0), 5.0, 0.0
        ).concentration(x, y)
        assert high[0] < low[0]

    def test_rate_linearity(self):
        x = np.array([2000.0])
        y = np.array([100.0])
        single = GaussianPlume(
            EmissionSource("s", 0, 0, 50.0, 100.0), 5.0, 0.0
        ).concentration(x, y)
        double = GaussianPlume(
            EmissionSource("s", 0, 0, 50.0, 200.0), 5.0, 0.0
        ).concentration(x, y)
        assert double[0] == pytest.approx(2 * single[0])

    def test_wind_direction_rotates_plume(self):
        source = EmissionSource("s", 0, 0, 50.0, 100.0)
        east = GaussianPlume(source, 5.0, 0.0)
        north = GaussianPlume(source, 5.0, math.pi / 2)
        x = np.array([2000.0])
        y = np.array([0.0])
        assert east.concentration(x, y)[0] > 0
        assert north.concentration(x, y)[0] == 0.0
        assert north.concentration(np.array([0.0]),
                                   np.array([2000.0]))[0] > 0

    def test_grid_superposition(self):
        site = default_site()
        _x, _y, field = concentration_grid(
            site.sources, 5.0, 0.3, StabilityClass.D, cells=50
        )
        assert field.shape == (50, 50)
        assert field.max() > 0

    def test_stability_classification(self):
        assert stability_from_weather(1.0, 0.9) is StabilityClass.A
        assert stability_from_weather(1.0, 0.0) is StabilityClass.F
        assert stability_from_weather(8.0, 0.5) is StabilityClass.D


class TestSensors:
    def field(self, x, y):
        return 100.0 * math.exp(-((x / 3000) ** 2 + (y / 3000) ** 2))

    def test_deployment(self):
        network = SensorNetwork.deploy_ring(count=12)
        assert len(network.sensors) == 12

    def test_readings_noisy_but_positive(self):
        network = SensorNetwork.deploy_ring(count=12)
        readings = network.observe(self.field)
        assert len(readings) == 12
        assert all(value >= 0 for _s, value in readings)

    def test_calibration_reduces_error(self):
        raw = SensorNetwork.deploy_ring(count=24, seed="cal")
        calibrated = SensorNetwork.deploy_ring(count=24, seed="cal")
        calibrated.calibrate(self.field, samples=64)
        raw_error = raw.mean_absolute_error(self.field)
        calibrated_error = calibrated.mean_absolute_error(self.field)
        assert calibrated_error < raw_error

    def test_idw_estimate_near_sensor(self):
        network = SensorNetwork.deploy_ring(count=8)
        readings = [(sensor, 50.0) for sensor in network.sensors]
        sensor = network.sensors[0]
        estimate = network.estimate_at(
            sensor.x_m, sensor.y_m, readings
        )
        assert estimate == pytest.approx(50.0)

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            SensorNetwork([])


class TestForecast:
    def test_day_has_24_assessments(self):
        forecast = AirQualityForecast(default_site(), grid_cells=30)
        day = forecast.forecast_day(members_per_hour=3)
        assert len(day) == 24
        assert all(0.0 <= a.exceedance_probability <= 1.0 for a in day)

    def test_some_exceedances_flagged(self):
        forecast = AirQualityForecast(default_site(), grid_cells=30)
        day = forecast.forecast_day(members_per_hour=4)
        decisions = {a.decision for a in day}
        assert ForecastDecision.NORMAL in decisions
        assert decisions - {ForecastDecision.NORMAL}  # some action

    def test_throttle_lowers_probability(self):
        forecast = AirQualityForecast(default_site(), grid_cells=30)
        members = synth_weather_members(7, members=6)
        full = forecast.assess_hour(7, members, throttle=1.0)
        reduced = forecast.assess_hour(7, members, throttle=0.2)
        assert reduced.peak_concentration < full.peak_concentration
        assert reduced.exceedance_probability <= \
            full.exceedance_probability

    def test_decisions_mitigate(self):
        forecast = AirQualityForecast(default_site(), grid_cells=30)
        day = forecast.forecast_day(members_per_hour=4)
        avoided, lost = forecast.apply_decisions(day)
        assert avoided > 0.5  # abatement works
        assert 0.0 <= lost < 0.5  # without shutting the plant

    def test_decision_follows_the_probability_thresholds(self):
        forecast = AirQualityForecast(default_site(), grid_cells=30)
        for assessment in forecast.forecast_day(members_per_hour=4):
            p = assessment.exceedance_probability
            expected = (
                ForecastDecision.ABATE if p >= ABATE_PROBABILITY
                else ForecastDecision.REDUCE if p >= REDUCE_PROBABILITY
                else ForecastDecision.NORMAL
            )
            assert assessment.decision is expected

    def test_weather_members_deterministic(self):
        a = synth_weather_members(5, members=4, seed="x")
        b = synth_weather_members(5, members=4, seed="x")
        assert a == b
