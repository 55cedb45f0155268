"""Tests for the batched off-grid engine and the weather-tensor cache.

The central guarantee mirrors ``test_batch.py``: with the step-loop
``soc_scan`` oracle substituted (the ``reference_kernels`` fixture), every
result out of :func:`repro.solar.batch.simulate_systems` is bit-identical to
the scalar year walk :func:`oracles.solar.simulate_year` on the same system,
the weather-year tensor is bit-identical to stacking the per-day synthesis of
:class:`oracles.solar.DayWeather`,
and weather is synthesized exactly once per key.  The fused kernel's
tolerance contract (exact integers/PV sums, 1e-9 SoC-dependent floats)
lives in ``tests/test_engine_parity.py``.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from oracles.solar import (
    DayWeather,
    month_of_day,
    project_lifetime_scalar,
    simulate_year,
)
from repro.errors import ConfigurationError
from repro.solar.batch import (
    WeatherCache,
    WeatherKey,
    simulate_systems,
)
from repro.solar.battery import Battery
from repro.solar.climates import DOY_MONTH, LOCATIONS, months_of_days
from repro.solar.degradation import project_lifetime
from repro.solar.irradiance import SyntheticWeather
from repro.solar.offgrid import (
    LoadProfile,
    OffGridResult,
    OffGridSystem,
    annual_load_wh,
    repeater_load_profile,
)
from repro.solar.pv import PvArray
from repro.solar.sizing import find_minimal_system
from repro.study import load_study, run_study

RESULT_FIELDS = tuple(f.name for f in dataclasses.fields(OffGridResult))

ALL_LOCATIONS = tuple(LOCATIONS)

STUDIES_DIR = Path(__file__).resolve().parents[1] / "studies"


def assert_results_equal(batched, scalar):
    for name in RESULT_FIELDS:
        assert getattr(batched, name) == getattr(scalar, name), name


class TestWeatherTensor:
    @pytest.mark.parametrize("key", ALL_LOCATIONS)
    def test_year_tensor_matches_day_iteration(self, key):
        weather = DayWeather(LOCATIONS[key], seed=11)
        tensor = weather.year_tensor(days=365, start_day_of_year=274)
        for i, day in enumerate(weather.year(365, 274)):
            assert np.array_equal(tensor.ghi_w_m2[i], day.ghi_w_m2)
            assert np.array_equal(tensor.poa_w_m2[i], day.poa_w_m2)
            assert tensor.kt[i] == day.kt
            assert int(tensor.day_of_year[i]) == day.day_of_year

    def test_monthly_poa_matches_per_day_accumulation(self):
        weather = DayWeather(LOCATIONS["vienna"], seed=3)
        sums = np.zeros(12)
        for day in weather.year():
            sums[month_of_day(day.day_of_year)] += day.daily_poa_wh_m2 / 1000.0
        assert np.array_equal(weather.monthly_poa_kwh_m2(), sums)

    def test_month_lookup_matches_boundary_scan(self):
        from repro.solar.climates import MONTH_DAYS, MONTH_FIRST_DOY
        for month, (first, length) in enumerate(zip(MONTH_FIRST_DOY, MONTH_DAYS)):
            assert month_of_day(first) == month
            assert month_of_day(first + length - 1) == month
        assert DOY_MONTH.shape == (365,)
        assert np.array_equal(months_of_days(np.arange(1, 366)),
                              [month_of_day(d) for d in range(1, 366)])

    def test_months_of_days_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            months_of_days(np.array([0]))
        with pytest.raises(ConfigurationError):
            months_of_days(np.array([366]))

    def test_tensor_rejects_bad_inputs(self):
        weather = SyntheticWeather(LOCATIONS["madrid"])
        with pytest.raises(ConfigurationError):
            weather.year_tensor(days=0)
        with pytest.raises(ConfigurationError):
            weather.year_tensor(start_day_of_year=0)


class TestBatchBitIdentity:
    # The per-location scalar-vs-batched field equality (seed sweep) lives in
    # tests/test_engine_parity.py; this class keeps the heterogeneous-batch
    # and error behaviours.

    def test_mixed_locations_seeds_and_loads_in_one_batch(
            self, reference_kernels):
        heavy = LoadProfile(hourly_w=(20.0,) * 24)
        systems = [
            OffGridSystem(LOCATIONS["madrid"], seed=1),
            OffGridSystem(LOCATIONS["berlin"], pv=PvArray(peak_w=600.0),
                          battery=Battery(capacity_wh=1440.0), seed=2),
            OffGridSystem(LOCATIONS["lyon"], load=heavy, seed=1),
            OffGridSystem(LOCATIONS["vienna"], seed=3,
                          battery=Battery(capacity_wh=1440.0, charge_efficiency=0.9,
                                          discharge_cutoff=0.3)),
        ]
        for system, result in zip(systems, simulate_systems(
                systems, weather_cache=WeatherCache())):
            assert_results_equal(result, simulate_year(system))

    def test_partial_year_and_initial_soc(self, reference_kernels):
        system = OffGridSystem(LOCATIONS["berlin"], seed=5)
        batched, = simulate_systems([system], days=45, initial_soc=0.6,
                                    weather_cache=WeatherCache())
        assert_results_equal(batched, simulate_year(system, days=45,
                                                    initial_soc=0.6))

    def test_empty_batch(self):
        assert simulate_systems([]) == []

    def test_rejects_bad_inputs(self):
        system = OffGridSystem(LOCATIONS["madrid"])
        with pytest.raises(ConfigurationError):
            simulate_systems([system], days=0)
        with pytest.raises(ConfigurationError):
            simulate_systems([system], initial_soc=1.5)


@pytest.fixture
def synthesized(monkeypatch):
    """Every weather year ``SyntheticWeather.year_tensor`` builds, in order."""
    years = []
    original = SyntheticWeather.year_tensor

    def spy(self, *args, **kwargs):
        years.append(original(self, *args, **kwargs))
        return years[-1]

    monkeypatch.setattr(SyntheticWeather, "year_tensor", spy)
    return years


class TestWeatherCache:
    def test_weather_synthesized_once_per_key(self, monkeypatch):
        calls = []
        original = SyntheticWeather.year_tensor

        def counting(self, *args, **kwargs):
            calls.append(self.location.name)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(SyntheticWeather, "year_tensor", counting)
        cache = WeatherCache(maxsize=8)
        systems = [
            OffGridSystem(LOCATIONS[key], pv=PvArray(peak_w=pv))
            for key in ("madrid", "berlin") for pv in (360.0, 540.0, 720.0)
        ]
        simulate_systems(systems, weather_cache=cache)
        # Six systems over two unique (location, params, seed) keys.
        assert sorted(calls) == ["Berlin", "Madrid"]
        assert cache.misses == 2
        simulate_systems(systems, weather_cache=cache)
        assert sorted(calls) == ["Berlin", "Madrid"]
        assert cache.hits >= 2

    def test_same_key_same_object(self, synthesized):
        cache = WeatherCache(maxsize=4)
        systems = [OffGridSystem(LOCATIONS["lyon"], seed=9)]
        simulate_systems(systems, weather_cache=cache)
        simulate_systems(systems, weather_cache=cache)
        assert len(synthesized) == 1
        key = WeatherKey.for_weather(
            SyntheticWeather(LOCATIONS["lyon"], seed=9), 365,
            OffGridSystem.START_DAY_OF_YEAR)
        assert cache.get(key) is synthesized[0]

    def test_distinct_keys_distinct_weather(self, synthesized):
        cache = WeatherCache(maxsize=8)
        simulate_systems([OffGridSystem(LOCATIONS["lyon"], seed=9),
                          OffGridSystem(LOCATIONS["lyon"], seed=10),
                          OffGridSystem(LOCATIONS["vienna"], seed=9)],
                         weather_cache=cache)
        simulate_systems([OffGridSystem(LOCATIONS["lyon"], seed=9)],
                         start_day_of_year=100, weather_cache=cache)
        base, *others = synthesized
        assert len(others) == 3
        for other in others:
            assert not np.array_equal(base.poa_w_m2, other.poa_w_m2)
        assert cache.misses == 4

    def test_disk_roundtrip_bit_identical(self, tmp_path, synthesized):
        warm = WeatherCache(maxsize=4, cache_dir=tmp_path)
        simulate_systems([OffGridSystem(LOCATIONS["berlin"], seed=4)],
                         weather_cache=warm)
        (fresh,) = synthesized
        cold = WeatherCache(maxsize=4, cache_dir=tmp_path)
        key = WeatherKey.for_weather(
            SyntheticWeather(LOCATIONS["berlin"], seed=4), 365,
            OffGridSystem.START_DAY_OF_YEAR)
        reloaded = cold.get(key)
        assert reloaded is not None
        assert np.array_equal(reloaded.poa_w_m2, fresh.poa_w_m2)
        assert np.array_equal(reloaded.ghi_w_m2, fresh.ghi_w_m2)
        assert np.array_equal(reloaded.kt, fresh.kt)
        assert np.array_equal(reloaded.day_of_year, fresh.day_of_year)
        assert np.array_equal(reloaded.month, fresh.month)
        assert reloaded.start_day_of_year == fresh.start_day_of_year

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        cache = WeatherCache(maxsize=4, cache_dir=tmp_path)
        simulate_systems([OffGridSystem(LOCATIONS["madrid"], seed=4)],
                         weather_cache=cache)
        bundles = list(tmp_path.glob("*.bundle"))
        assert bundles
        for path in bundles:
            path.write_bytes(b"not a bundle")
        cold = WeatherCache(maxsize=4, cache_dir=tmp_path)
        key = WeatherKey.for_weather(
            SyntheticWeather(LOCATIONS["madrid"], seed=4), 365,
            OffGridSystem.START_DAY_OF_YEAR)
        assert cold.load_verified(key.content_hash) is None
        assert cold.get(key) is None
        assert cold.quarantined == 1

    def test_key_hash_stable_and_content_sensitive(self):
        weather = SyntheticWeather(LOCATIONS["madrid"], seed=4)
        a = WeatherKey.for_weather(weather, 365, 274)
        b = WeatherKey.for_weather(SyntheticWeather(LOCATIONS["madrid"], seed=4),
                                   365, 274)
        assert a.content_hash == b.content_hash
        c = WeatherKey.for_weather(SyntheticWeather(LOCATIONS["madrid"], seed=5),
                                   365, 274)
        assert a.content_hash != c.content_hash

    def test_key_covers_geometry_override(self):
        from repro.solar.geometry import SolarGeometry
        default = WeatherKey.for_weather(
            SyntheticWeather(LOCATIONS["madrid"], seed=4), 365, 1)
        overridden = WeatherKey.for_weather(
            SyntheticWeather(LOCATIONS["madrid"], seed=4,
                             geometry=SolarGeometry(52.5)), 365, 1)
        assert default.content_hash != overridden.content_hash


def _minimal_system_scalar(location):
    """The sizing ladder walked one :func:`simulate_year` per rung."""
    from repro.solar.sizing import DEFAULT_CANDIDATES

    rejected = []
    for pv, wh in DEFAULT_CANDIDATES:
        result = simulate_year(OffGridSystem(
            location, pv=PvArray(peak_w=pv), battery=Battery(capacity_wh=wh)))
        if result.zero_downtime:
            return (pv, wh), tuple(rejected), result
        rejected.append((pv, wh))
    raise AssertionError("no feasible rung")


class TestRoutedConsumers:
    @pytest.mark.parametrize("key", ALL_LOCATIONS)
    def test_sizing_matches_scalar_ladder_walk(self, key, reference_kernels):
        batch = find_minimal_system(LOCATIONS[key],
                                    weather_cache=WeatherCache())
        chosen, rejected, result = _minimal_system_scalar(LOCATIONS[key])
        assert (batch.pv_peak_w, batch.battery_capacity_wh) == chosen
        assert batch.rejected == rejected
        assert_results_equal(batch.result, result)

    def test_lifetime_matches_year_by_year_loop(self, reference_kernels):
        batch = project_lifetime(LOCATIONS["vienna"], 540.0, 1440.0,
                                 service_years=4, weather_cache=WeatherCache())
        scalar = project_lifetime_scalar(LOCATIONS["vienna"], 540.0, 1440.0,
                                         service_years=4)
        assert len(batch.years) == len(scalar.years)
        for b, s in zip(batch.years, scalar.years):
            assert b.year == s.year
            assert b.battery_capacity_wh == s.battery_capacity_wh
            assert b.pv_peak_w == s.pv_peak_w
            assert b.equivalent_full_cycles == s.equivalent_full_cycles
            assert_results_equal(b.result, s.result)

    def test_annual_load_fold_matches_simulation(self):
        load = repeater_load_profile()
        result = simulate_year(OffGridSystem(LOCATIONS["madrid"], load=load))
        assert annual_load_wh(load) / 1000.0 == result.annual_load_kwh

    def test_candidate_ladder_order_and_identity(self, reference_kernels):
        candidates = ((360.0, 720.0), (540.0, 1440.0))
        systems = [OffGridSystem(LOCATIONS["vienna"], pv=PvArray(peak_w=pv),
                                 battery=Battery(capacity_wh=wh))
                   for pv, wh in candidates]
        results = simulate_systems(systems, weather_cache=WeatherCache())
        assert [(r.pv_peak_w, r.battery_capacity_wh) for r in results] == \
            list(candidates)
        for system, result in zip(systems, results):
            assert_results_equal(result, simulate_year(system))


@pytest.fixture
def soc_scans(monkeypatch):
    """The system count of every ``soc_scan`` call the solar engine makes."""
    import repro.solar.batch as solar_batch

    calls = []
    original = solar_batch.soc_scan

    def spy(produced_w, *args, **kwargs):
        calls.append(produced_w.shape[-1])
        return original(produced_w, *args, **kwargs)

    monkeypatch.setattr(solar_batch, "soc_scan", spy)
    return calls


class TestOneEngineCallPerExperiment:
    """``repro all``'s solar experiments are one engine call each, equal to
    the per-location / per-configuration public calls."""

    def test_table4_equals_per_location_sizing(self, soc_scans):
        from repro.experiments.table4 import LOCATION_ORDER, run_table4
        from repro.solar.sizing import DEFAULT_CANDIDATES, SizingResult

        table = run_table4(weather_cache=WeatherCache())
        assert soc_scans == [len(LOCATION_ORDER) * len(DEFAULT_CANDIDATES)]
        assert list(table.sizings) == list(LOCATION_ORDER)
        for key in LOCATION_ORDER:
            alone = find_minimal_system(LOCATIONS[key],
                                        weather_cache=WeatherCache())
            for field in dataclasses.fields(SizingResult):
                if field.name != "result":
                    assert getattr(table.sizings[key], field.name) == \
                        getattr(alone, field.name), (key, field.name)
            assert_results_equal(table.sizings[key].result, alone.result)

    def test_lifetime_equals_per_configuration_projection(self, soc_scans,
                                                          monkeypatch):
        import repro.experiments.extensions as extensions

        projected = []
        original = extensions._project_lifetimes

        def spy(*args, **kwargs):
            results = original(*args, **kwargs)
            projected.extend(results)
            return results

        monkeypatch.setattr(extensions, "_project_lifetimes", spy)
        experiment = extensions.run_lifetime(service_years=3,
                                             weather_cache=WeatherCache())
        assert soc_scans == [4 * 3]
        assert len(projected) == len(experiment.rows) == 4
        for (name, pv, battery, _), lifetime in zip(experiment.rows,
                                                    projected):
            key = name.lower()
            alone = project_lifetime(LOCATIONS[key], pv, battery,
                                     service_years=3,
                                     weather_cache=WeatherCache())
            assert len(lifetime.years) == len(alone.years) == 3
            for got, want in zip(lifetime.years, alone.years):
                for field in ("year", "battery_capacity_wh", "pv_peak_w",
                              "equivalent_full_cycles"):
                    assert getattr(got, field) == getattr(want, field), field
                assert_results_equal(got.result, want.result)


def _table4_grid(pv_peaks, battery_whs):
    """``studies/table4_grid.yaml`` over the given candidate axes."""
    spec = load_study(STUDIES_DIR / "table4_grid.yaml")
    return dataclasses.replace(spec, axes=(
        ("location", ("madrid", "lyon", "vienna", "berlin")),
        ("pv_peak_w", tuple(pv_peaks)),
        ("battery_wh", tuple(battery_whs)),
    ))


class TestTable4Grid:
    """The shipped table4-grid study through the study runner."""

    def test_grid_experiment_matches_scalar(self):
        table = run_study(_table4_grid((540.0, 600.0), (720.0, 1440.0))).table
        wide = table.wide()
        records = (dict(zip(wide, cells)) for cells in zip(*wide.values()))
        rows = {(r["location"], r["pv_peak_w"], r["battery_wh"]): r
                for r in records}
        assert {loc for loc, _, _ in rows} == {"madrid", "lyon", "vienna",
                                               "berlin"}
        row = rows[("berlin", 600.0, 1440.0)]
        system = OffGridSystem(LOCATIONS["berlin"], pv=PvArray(peak_w=600.0),
                               battery=Battery(capacity_wh=1440.0))
        scalar = simulate_year(system)
        assert row["zero_downtime"] == int(scalar.zero_downtime)
        assert row["unmet_hours"] == scalar.unmet_hours
        assert row["unmet_wh"] == scalar.unmet_wh
        assert row["min_soc"] == scalar.min_soc
        assert row["full_battery_days_pct"] == scalar.full_battery_days_pct
        assert row["annual_pv_kwh"] == scalar.annual_pv_kwh

        def minimal_battery_wh(location, pv):
            feasible = [wh for (loc, p, wh), r in rows.items()
                        if (loc, p) == (location, pv) and r["zero_downtime"]]
            return min(feasible) if feasible else None

        # The paper's outcomes are a cross-section of the grid.
        assert minimal_battery_wh("madrid", 540.0) == 720.0
        assert minimal_battery_wh("vienna", 540.0) == 1440.0
        assert minimal_battery_wh("berlin", 540.0) is None
        assert minimal_battery_wh("berlin", 600.0) == 1440.0

    def test_grid_series_shape(self):
        table = run_study(_table4_grid((540.0,), (720.0, 1440.0))).table
        assert len(table) == 4 * 1 * 2
        assert set(table.wide()) >= {"location", "pv_peak_w", "battery_wh",
                                     "zero_downtime", "unmet_hours"}
        assert table.table().startswith("study table4-grid")
