"""Tests for the weather/energy use-case substrate."""

import numpy as np
import pytest

from repro.apps.weather.downscaling import (
    downscale_field,
    downscaling_flops,
)
from repro.apps.weather.ensemble import generate_ensemble
from repro.apps.weather.grid import synth_truth
from repro.apps.weather.market import ImbalanceMarket
from repro.apps.weather.ml import MLP
from repro.apps.weather.wind import WindFarm, default_farm, power_curve


class TestWeatherField:
    def test_truth_is_physical(self):
        truth = synth_truth(size_cells=60)
        assert truth.data.min() >= 0.0
        assert truth.data.max() <= 40.0
        assert truth.data.std() > 0.5  # has structure

    def test_deterministic_by_seed(self):
        a = synth_truth(size_cells=40, seed="s")
        b = synth_truth(size_cells=40, seed="s")
        assert np.array_equal(a.data, b.data)
        c = synth_truth(size_cells=40, seed="other")
        assert not np.array_equal(a.data, c.data)

    def test_block_average_shapes(self):
        truth = synth_truth(size_cells=60)
        coarse = truth.block_average(4)
        assert coarse.shape == (15, 15)
        assert coarse.resolution_km == pytest.approx(10.0)
        assert coarse.data.mean() == pytest.approx(
            truth.data.mean(), rel=1e-6
        )

    def test_block_average_indivisible_rejected(self):
        truth = synth_truth(size_cells=60)
        with pytest.raises(ValueError):
            truth.block_average(7)

    def test_value_at_km_clamps(self):
        truth = synth_truth(size_cells=20)
        assert truth.value_at_km(-5.0, -5.0) == truth.data[0, 0]
        far = truth.shape[0] * truth.resolution_km + 100
        assert truth.value_at_km(far, far) == truth.data[-1, -1]


class TestEnsemble:
    def test_members_and_spread(self):
        truth = synth_truth(size_cells=60)
        ensemble = generate_ensemble(truth, 10.0, members=6,
                                     lead_hours=12)
        assert ensemble.size == 6
        assert ensemble.spread() > 0
        assert ensemble.resolution_km == pytest.approx(10.0)

    def test_spread_grows_with_lead_time(self):
        truth = synth_truth(size_cells=60)
        near = generate_ensemble(truth, 10.0, members=8, lead_hours=3)
        far = generate_ensemble(truth, 10.0, members=8, lead_hours=24)
        assert far.spread() > near.spread()

    def test_error_grows_with_resolution(self):
        """The paper's core premise: coarse ensembles are worse."""
        farm = default_farm()
        errors = {}
        for resolution in (25.0, 5.0):
            per_hour = []
            for hour in range(0, 24, 3):
                truth = synth_truth(size_cells=120, hour=hour)
                ensemble = generate_ensemble(
                    truth, resolution, members=6,
                    lead_hours=hour + 1, seed=f"h{hour}",
                )
                true_power = farm.production_mw(truth)
                predicted = farm.production_distribution_mw(
                    ensemble).mean()
                per_hour.append(abs(predicted - true_power))
            errors[resolution] = np.mean(per_hour)
        assert errors[5.0] < errors[25.0]

    def test_invalid_resolution_rejected(self):
        truth = synth_truth(size_cells=60)
        with pytest.raises(ValueError):
            generate_ensemble(truth, 7.3)


class TestDownscaling:
    def test_shape_and_resolution(self):
        truth = synth_truth(size_cells=60)
        coarse = truth.block_average(4)
        fine = downscale_field(coarse, truth.resolution_km)
        assert fine.shape == truth.shape
        assert fine.resolution_km == truth.resolution_km

    def test_identity_when_same_resolution(self):
        truth = synth_truth(size_cells=40)
        assert downscale_field(truth, truth.resolution_km) is truth

    def test_restores_small_scale_variance(self):
        truth = synth_truth(size_cells=80)
        coarse = truth.block_average(8)
        from repro.apps.weather.downscaling import _bilinear_upsample

        smooth = _bilinear_upsample(coarse.data, 8)
        fine = downscale_field(coarse, truth.resolution_km)
        # downscaled field has more variance than plain interpolation
        assert fine.data.std() > smooth.std()

    def test_non_integer_factor_rejected(self):
        truth = synth_truth(size_cells=60)
        with pytest.raises(ValueError):
            downscale_field(truth.block_average(4), 3.7)

    def test_flops_grow_with_factor(self):
        assert downscaling_flops(100, 8) > downscaling_flops(100, 2)


class TestWindFarm:
    def test_power_curve_regions(self):
        wind = np.array([0.0, 2.9, 3.0, 8.0, 12.0, 20.0, 25.0, 30.0])
        power = power_curve(wind)
        assert power[0] == 0.0 and power[1] == 0.0  # below cut-in
        assert 0.0 <= power[3] < 1.0  # ramp
        assert power[4] == 1.0 and power[5] == 1.0  # rated
        assert power[6] == 0.0 and power[7] == 0.0  # cut-out

    def test_power_curve_monotone_in_ramp(self):
        wind = np.linspace(3.0, 12.0, 50)
        power = power_curve(wind)
        assert np.all(np.diff(power) >= 0)

    def test_farm_capacity(self):
        farm = default_farm()
        assert farm.capacity_mw == pytest.approx(24 * 3.0)

    def test_production_bounded(self):
        farm = default_farm()
        truth = synth_truth(size_cells=120)
        production = farm.production_mw(truth)
        assert 0.0 <= production <= farm.capacity_mw

    def test_empty_farm_rejected(self):
        with pytest.raises(ValueError):
            WindFarm("empty", [])


class TestMLP:
    def test_learns_linear_map(self, rng):
        x = rng.normal(size=(256, 4))
        true_w = rng.normal(size=(4, 1))
        y = x @ true_w
        model = MLP([4, 16, 1])
        initial = np.mean((model.forward(x) - y) ** 2)
        model.fit(x, y, epochs=100, learning_rate=3e-3)
        final = np.mean((model.forward(x) - y) ** 2)
        assert final < 0.1 * initial

    def test_forward_shape(self):
        model = MLP([3, 8, 2])
        out = model.forward(np.zeros((5, 3)))
        assert out.shape == (5, 2)

    def test_exchange_spec_compiles(self):
        from repro.core.frontend import import_model

        model = MLP([4, 8, 1])
        spec = model.to_exchange_spec("corr", batch=16)
        imported = import_model(spec)
        from repro.core.dsl.kernel_dsl import compile_kernel

        module = compile_kernel(imported.dsl_source)
        assert module.find_function("corr") is not None

    def test_too_few_layers_rejected(self):
        with pytest.raises(ValueError):
            MLP([4])


class TestMarket:
    def test_perfect_forecast_costs_nothing(self):
        market = ImbalanceMarket()
        actual = [10.0, 20.0, 15.0]
        assert market.imbalance_cost(actual, actual) == pytest.approx(
            0.0)

    def test_errors_cost_money(self):
        market = ImbalanceMarket()
        actual = [10.0, 20.0, 15.0]
        committed = [15.0, 15.0, 15.0]
        assert market.imbalance_cost(committed, actual) > 0

    def test_shortfall_worse_than_surplus(self):
        market = ImbalanceMarket()
        actual = [10.0]
        over_commit = market.imbalance_cost([15.0], actual)
        under_commit = market.imbalance_cost([5.0], actual)
        assert over_commit > under_commit

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            ImbalanceMarket().revenue([1.0], [1.0, 2.0])

    def test_better_forecast_lower_cost(self):
        market = ImbalanceMarket()
        actual = np.array([10.0, 30.0, 22.0, 5.0])
        good = actual + np.array([1.0, -1.0, 0.5, -0.5])
        bad = actual + np.array([8.0, -9.0, 6.0, -5.0])
        assert market.imbalance_cost(good, actual) < \
            market.imbalance_cost(bad, actual)
