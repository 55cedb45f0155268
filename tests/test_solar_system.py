"""Tests for PV array, battery, off-grid simulation and sizing — Table IV."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.solar import BatteryBucket
from repro import constants
from repro.energy.duty import lp_node_average_power_w
from repro.errors import ConfigurationError, InfeasibleError
from repro.solar.batch import simulate_systems
from repro.solar.battery import Battery
from repro.solar.climates import LOCATIONS
from repro.solar.offgrid import LoadProfile, OffGridSystem, repeater_load_profile
from repro.solar.pv import PvArray
from repro.solar.sizing import find_minimal_system


class TestPvArray:
    def test_stc_output(self):
        pv = PvArray(peak_w=540.0, performance_ratio=1.0)
        assert pv.power_w(1000.0) == pytest.approx(540.0)

    def test_performance_ratio(self):
        pv = PvArray(peak_w=540.0, performance_ratio=0.8)
        assert pv.power_w(1000.0) == pytest.approx(432.0)

    def test_linear_in_irradiance(self):
        pv = PvArray()
        assert pv.power_w(500.0) == pytest.approx(pv.power_w(1000.0) / 2)

    def test_from_modules(self):
        pv = PvArray.from_modules(3)
        assert pv.peak_w == pytest.approx(540.0)

    def test_daily_energy(self):
        pv = PvArray(peak_w=1000.0, performance_ratio=1.0)
        hours = np.zeros(24)
        hours[10:14] = 500.0
        assert pv.daily_energy_wh(hours) == pytest.approx(2000.0)

    def test_rejects_negative_irradiance(self):
        with pytest.raises(ConfigurationError):
            PvArray().power_w(-1.0)

    def test_rejects_bad_pr(self):
        with pytest.raises(ConfigurationError):
            PvArray(performance_ratio=0.0)

    def test_rejects_zero_modules(self):
        with pytest.raises(ConfigurationError):
            PvArray.from_modules(0)

    @pytest.mark.parametrize("peak_w", (0.0, -540.0, np.nan, np.inf, -np.inf))
    def test_rejects_non_positive_or_non_finite_peak(self, peak_w):
        with pytest.raises(ConfigurationError):
            PvArray(peak_w=peak_w)


class TestBattery:
    """The parameter record the off-grid engine reads."""

    def test_is_a_frozen_parameter_record(self):
        batt = Battery()
        assert [f.name for f in dataclasses.fields(batt)] == [
            "capacity_wh", "discharge_cutoff", "charge_efficiency"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            batt.capacity_wh = 1.0

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ConfigurationError):
            Battery(discharge_cutoff=1.0)

    @pytest.mark.parametrize("capacity_wh",
                             (0.0, -720.0, np.nan, np.inf, -np.inf))
    def test_rejects_non_positive_or_non_finite_capacity(self, capacity_wh):
        with pytest.raises(ConfigurationError):
            Battery(capacity_wh=capacity_wh)

    @pytest.mark.parametrize("field,value", (
        ("discharge_cutoff", -0.1), ("discharge_cutoff", np.nan),
        ("charge_efficiency", 0.0), ("charge_efficiency", 1.5),
        ("charge_efficiency", np.nan)))
    def test_rejects_out_of_range_cutoff_and_efficiency(self, field, value):
        with pytest.raises(ConfigurationError):
            Battery(**{field: value})


class TestBatteryBucket:
    """The scalar oracle's state-of-charge bucket over a Battery."""

    def test_initial_full(self):
        batt = BatteryBucket()
        assert batt.is_full
        assert batt.usable_wh == pytest.approx(0.6 * 720.0)

    def test_charge_respects_headroom(self):
        batt = BatteryBucket(Battery(capacity_wh=100.0, charge_efficiency=1.0))
        batt.reset(0.5)
        taken = batt.charge(100.0)
        assert taken == pytest.approx(50.0)
        assert batt.is_full

    def test_charge_efficiency_loss(self):
        batt = BatteryBucket(Battery(capacity_wh=100.0, charge_efficiency=0.9))
        batt.reset(0.0)
        batt.charge(50.0)
        assert batt.stored_wh == pytest.approx(45.0)

    def test_discharge_stops_at_cutoff(self):
        batt = BatteryBucket(Battery(capacity_wh=100.0, discharge_cutoff=0.4))
        delivered = batt.discharge(100.0)
        assert delivered == pytest.approx(60.0)
        assert batt.soc == pytest.approx(0.4)

    def test_further_discharge_yields_nothing(self):
        batt = BatteryBucket(Battery(capacity_wh=100.0, discharge_cutoff=0.4))
        batt.discharge(100.0)
        assert batt.discharge(10.0) == 0.0

    def test_reset(self):
        batt = BatteryBucket()
        batt.discharge(100.0)
        batt.reset()
        assert batt.is_full

    def test_rejects_negative_amounts(self):
        with pytest.raises(ConfigurationError):
            BatteryBucket().charge(-1.0)
        with pytest.raises(ConfigurationError):
            BatteryBucket().discharge(-1.0)

    @pytest.mark.parametrize("soc", (-0.1, 1.1, np.nan))
    def test_rejects_soc_outside_unit_interval(self, soc):
        with pytest.raises(ConfigurationError):
            BatteryBucket(soc=soc)

    @given(st.floats(min_value=0.0, max_value=500.0),
           st.floats(min_value=0.0, max_value=500.0))
    def test_soc_stays_in_bounds(self, charge_wh, discharge_wh):
        batt = BatteryBucket(Battery(capacity_wh=720.0), soc=0.7)
        batt.charge(charge_wh)
        batt.discharge(discharge_wh)
        assert 0.0 <= batt.soc <= 1.0
        assert (batt.soc >= batt.battery.discharge_cutoff - 1e-9
                or batt.soc <= 0.7)


class TestLoadProfile:
    def test_repeater_profile_daily_total(self):
        profile = repeater_load_profile()
        expected = lp_node_average_power_w(sleeping=True) * 24.0
        assert profile.daily_wh == pytest.approx(expected, abs=0.01)
        assert profile.daily_wh == pytest.approx(124.1, abs=0.1)

    def test_night_hours_at_sleep_power(self):
        profile = repeater_load_profile()
        assert profile.hourly_w[0] == pytest.approx(constants.LP_REPEATER_PSLEEP_W)
        assert profile.hourly_w[4] == pytest.approx(constants.LP_REPEATER_PSLEEP_W)
        assert profile.hourly_w[12] > constants.LP_REPEATER_PSLEEP_W

    def test_needs_24_hours(self):
        with pytest.raises(ConfigurationError):
            LoadProfile(hourly_w=(1.0,) * 23)

    def test_rejects_negative_load(self):
        with pytest.raises(ConfigurationError):
            LoadProfile(hourly_w=(-1.0,) + (1.0,) * 23)


def _year(system, days=365):
    """One system's hourly energy balance through the batch engine."""
    return simulate_systems([system], days=days)[0]


class TestOffGridSimulation:
    def test_madrid_base_zero_downtime(self):
        result = _year(OffGridSystem(LOCATIONS["madrid"]))
        assert result.zero_downtime
        assert result.full_battery_days_pct > 97.0

    def test_lyon_base_zero_downtime(self):
        result = _year(OffGridSystem(LOCATIONS["lyon"]))
        assert result.zero_downtime

    def test_vienna_base_has_downtime(self):
        result = _year(OffGridSystem(LOCATIONS["vienna"]))
        assert not result.zero_downtime

    def test_vienna_doubled_battery_recovers(self):
        result = _year(OffGridSystem(LOCATIONS["vienna"],
                                     battery=Battery(capacity_wh=1440.0)))
        assert result.zero_downtime

    def test_berlin_needs_bigger_pv_too(self):
        small_pv = _year(OffGridSystem(LOCATIONS["berlin"],
                                       battery=Battery(capacity_wh=1440.0)))
        assert not small_pv.zero_downtime
        big = _year(OffGridSystem(LOCATIONS["berlin"], pv=PvArray(peak_w=600.0),
                                  battery=Battery(capacity_wh=1440.0)))
        assert big.zero_downtime

    def test_full_days_ordering_matches_paper(self):
        pct = {}
        configs = {"madrid": (540.0, 720.0), "lyon": (540.0, 720.0),
                   "vienna": (540.0, 1440.0), "berlin": (600.0, 1440.0)}
        for key, (pv, batt) in configs.items():
            result = _year(OffGridSystem(LOCATIONS[key], pv=PvArray(peak_w=pv),
                                         battery=Battery(capacity_wh=batt)))
            pct[key] = result.full_battery_days_pct
        assert pct["madrid"] > pct["lyon"] > pct["vienna"] > pct["berlin"]

    def test_annual_load_consistency(self):
        result = _year(OffGridSystem(LOCATIONS["madrid"]))
        assert result.annual_load_kwh == pytest.approx(0.1241 * 365, rel=0.01)

    def test_monthly_stats_shapes(self):
        result = _year(OffGridSystem(LOCATIONS["madrid"]))
        assert len(result.monthly_pv_kwh) == 12
        assert len(result.monthly_unmet_hours) == 12
        assert sum(result.monthly_unmet_hours) == result.unmet_hours

    def test_winter_months_least_pv(self):
        result = _year(OffGridSystem(LOCATIONS["berlin"]))
        monthly = result.monthly_pv_kwh
        assert min(monthly) == min(monthly[11], monthly[0])  # Dec or Jan darkest

    def test_huge_load_causes_downtime_everywhere(self):
        big_load = LoadProfile(hourly_w=(500.0,) * 24)
        result = _year(OffGridSystem(LOCATIONS["madrid"], load=big_load))
        assert result.unmet_hours > 1000

    def test_seed_determinism(self):
        a = _year(OffGridSystem(LOCATIONS["vienna"], seed=7))
        b = _year(OffGridSystem(LOCATIONS["vienna"], seed=7))
        assert a.full_battery_days == b.full_battery_days
        assert a.unmet_hours == b.unmet_hours

    def test_rejects_zero_days(self):
        with pytest.raises(ConfigurationError):
            _year(OffGridSystem(LOCATIONS["madrid"]), days=0)

    def test_min_soc_never_below_cutoff(self):
        result = _year(OffGridSystem(LOCATIONS["berlin"]))
        assert result.min_soc >= 0.4 - 1e-9


class TestSizing:
    def test_madrid_standard_config(self):
        s = find_minimal_system(LOCATIONS["madrid"])
        assert (s.pv_peak_w, s.battery_capacity_wh) == (540.0, 720.0)
        assert not s.needed_upsizing

    def test_lyon_standard_config(self):
        s = find_minimal_system(LOCATIONS["lyon"])
        assert (s.pv_peak_w, s.battery_capacity_wh) == (540.0, 720.0)

    def test_vienna_doubled_battery(self):
        s = find_minimal_system(LOCATIONS["vienna"])
        assert (s.pv_peak_w, s.battery_capacity_wh) == (540.0, 1440.0)
        assert s.needed_upsizing
        assert (540.0, 720.0) in s.rejected

    def test_berlin_bigger_pv_and_battery(self):
        s = find_minimal_system(LOCATIONS["berlin"])
        assert (s.pv_peak_w, s.battery_capacity_wh) == (600.0, 1440.0)
        assert (540.0, 720.0) in s.rejected
        assert (540.0, 1440.0) in s.rejected

    def test_infeasible_load_raises(self):
        load = LoadProfile(hourly_w=(2000.0,) * 24)
        with pytest.raises(InfeasibleError):
            find_minimal_system(LOCATIONS["berlin"], load=load)
