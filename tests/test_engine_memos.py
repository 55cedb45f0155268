"""The study adapters' per-process memos under the service's threads.

The service runs engine adapters on worker threads that share the
timetable-fleet and network-frontier memos of :mod:`repro.study.engines`
and the solar engine's default weather memo.  Rows must not depend on
which thread filled or evicted an entry.
"""

from __future__ import annotations

import threading

import numpy as np

import repro.study.engines as engines
from repro.study.engines import run_cases

#: Threads that run the cases concurrently, each in its own order.
THREADS = 4


def _threaded_rows(engine, cases, seeds):
    """Each thread runs every case, one at a time, in a shuffled order;
    returns the rows per thread in case order."""
    results: list[list] = [[None] * len(cases) for _ in range(THREADS)]
    errors = []

    def work(worker):
        order = np.random.default_rng(worker).permutation(len(cases))
        try:
            for i in order:
                results[worker][i] = run_cases(engine, [cases[i]],
                                               [seeds[i]])[0]
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(w,))
               for w in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    return results


def _bits(row):
    """A row as exactly comparable values (``repr`` round-trips floats)."""
    return [(name, repr(value)) for name, value in row.items()]


def test_sim_rows_do_not_depend_on_the_fleet_memo():
    # 40 distinct seeds: more fleets than the memo's 32, so the threads
    # evict each other's entries.
    cases = [{"isd_m": 1000.0 + 250.0 * (i % 3), "n_repeaters": 2,
              "headway_s": 900.0, "trains_per_day": 40.0,
              "policy": ("continuous", "sleep")[i % 2],
              "realizations": 1} for i in range(40)]
    seeds = list(range(40))
    assert len(set(seeds)) > engines._timetable_fleet.cache_info().maxsize
    engines._timetable_fleet.cache_clear()
    single = [_bits(row) for row in run_cases("sim", cases, seeds)]
    for rows in _threaded_rows("sim", cases, seeds):
        assert [_bits(row) for row in rows] == single


def test_network_rows_do_not_depend_on_the_frontier_memo():
    # Six sleep-headway rules: more frontiers than the memo's 4.
    cases = [{"graph": "demo", "min_sleep_headway_s": headway,
              "energy_budget_w_per_km": budget}
             for headway in (120.0, 180.0, 240.0, 300.0, 360.0, 420.0)
             for budget in (0.0, 125.0)]
    seeds = [0] * len(cases)
    assert 6 > engines._frontiers.cache_info().maxsize
    engines._frontiers.cache_clear()
    single = [_bits(row) for row in run_cases("network", cases, seeds)]
    for rows in _threaded_rows("network", cases, seeds):
        assert [_bits(row) for row in rows] == single


def test_solar_without_cache_dir_uses_the_default_weather_memo(monkeypatch):
    import repro.solar.batch as batch
    from repro.solar.batch import WeatherCache
    from repro.solar.irradiance import SyntheticWeather

    monkeypatch.setattr(batch, "_DEFAULT_WEATHER_CACHE",
                        WeatherCache(maxsize=64))
    synthesized = []
    original = SyntheticWeather.year_tensor

    def spy(self, *args, **kwargs):
        synthesized.append((self.location.name, self.seed))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SyntheticWeather, "year_tensor", spy)
    cases = [{"location": location, "pv_peak_w": pv, "battery_wh": 1440.0,
              "days": 30}
             for location in ("madrid", "berlin") for pv in (540.0, 720.0)]
    seeds = [1, 2, 1, 2]
    first = run_cases("solar", cases, seeds)
    assert run_cases("solar", cases, seeds) == first
    assert sorted(synthesized) == [("Berlin", 1), ("Berlin", 2),
                                   ("Madrid", 1), ("Madrid", 2)]
    assert batch._DEFAULT_WEATHER_CACHE.misses == 4
    assert batch._DEFAULT_WEATHER_CACHE.hits == 4
