"""Table IV — off-grid PV dimensioning at Madrid / Lyon / Vienna / Berlin.

Asserts the paper's sizing outcome (standard system in Madrid/Lyon, doubled
battery in Vienna, doubled battery + 600 Wp in Berlin) and the published
"days with full battery" ordering.
"""

import pytest

from repro import constants
from repro.experiments.table4 import run_table4


def bench_table4_sizing(benchmark):
    result = benchmark.pedantic(run_table4, rounds=1, iterations=1)

    s = result.sizings
    assert (s["madrid"].pv_peak_w, s["madrid"].battery_capacity_wh) == (540.0, 720.0)
    assert (s["lyon"].pv_peak_w, s["lyon"].battery_capacity_wh) == (540.0, 720.0)
    assert (s["vienna"].pv_peak_w, s["vienna"].battery_capacity_wh) == (540.0, 1440.0)
    assert (s["berlin"].pv_peak_w, s["berlin"].battery_capacity_wh) == (600.0, 1440.0)

    assert result.full_days_ordering() == ["madrid", "lyon", "vienna", "berlin"]
    for key, sizing in s.items():
        assert sizing.result.zero_downtime, key
        paper = constants.PAPER_FULL_BATTERY_DAYS_PCT[key]
        assert sizing.result.full_battery_days_pct == pytest.approx(paper, abs=2.5), key


def bench_table4_single_year_sim(benchmark):
    """Microbenchmark of one hourly off-grid year simulation."""
    from repro.solar.batch import WeatherCache, simulate_systems
    from repro.solar.climates import LOCATIONS
    from repro.solar.offgrid import OffGridSystem

    # A fresh weather cache per call: each year synthesizes its weather.
    result, = benchmark(
        lambda: simulate_systems([OffGridSystem(LOCATIONS["vienna"])],
                                 weather_cache=WeatherCache()))
    assert result.days == 365
