"""Integration tests: every number the paper publishes, checked end to end.

This is the reproduction's contract.  Each test quotes the paper's claim it
verifies.  See EXPERIMENTS.md for the full paper-vs-measured index.
"""

import numpy as np
import pytest

from repro import constants
from repro.capacity.shannon import peak_snr_threshold_db
from repro.corridor.layout import CorridorLayout
from repro.energy.analysis import conventional_reference_w_per_km, fig4_rows
from repro.energy.duty import lp_node_average_power_w
from repro.energy.scenario import OperatingMode, segment_energy
from repro.optimize.isd import sweep_max_isd
from repro.radio.link import LinkParams, compute_snr_profile
from repro.simulation.batch import simulate_days
from repro.solar.sizing import find_minimal_system
from repro.solar.climates import LOCATIONS
from repro.traffic.occupancy import duty_cycle, full_load_seconds_per_train


class TestSectionI:
    def test_corridor_power_per_km_quote(self):
        """'with two RRHs required per site and an ISD of 500 m, the power
        consumption rises to 1200 W per kilometer of installation' (at full
        RRH power 300 W)."""
        per_km = 2 * 300.0 * (1000.0 / 500.0)
        assert per_km == constants.CORRIDOR_POWER_PER_KM_QUOTED_W

    def test_europe_energy_estimate_consistent(self):
        """1.24 TWh/yr over 118,000 km implies ~1200 W/km around the clock."""
        implied_w_per_km = (constants.EUROPE_CORRIDOR_ENERGY_TWH * 1e12
                            / 8760.0 / constants.EUROPE_ELECTRIFIED_TRACK_KM)
        assert implied_w_per_km == pytest.approx(1200.0, rel=0.01)

    def test_repeater_five_percent_claim(self):
        """'these repeaters consume only 5 % of the energy of a regular cell
        site' — 28.4 W vs. a 560 W corridor site."""
        assert constants.LP_REPEATER_FULL_LOAD_W / constants.HP_SITE_FULL_LOAD_W \
            == pytest.approx(0.05, abs=0.002)


class TestSectionIIIA:
    def test_peak_snr_threshold(self):
        """'the peak throughput of 5G NR at an SNR > 29 dB'."""
        assert peak_snr_threshold_db() == pytest.approx(29.30, abs=0.01)

    def test_rstp_accounting(self):
        """'a 5G NR carrier of 100 MHz with 3300 subcarriers'; 2500 W EIRP."""
        link = LinkParams()
        assert link.hp_rstp_dbm == pytest.approx(64.0 - 10 * np.log10(3300), abs=1e-9)
        assert link.lp_rstp_dbm == pytest.approx(40.0 - 10 * np.log10(3300), abs=1e-9)

    def test_fig3_scenario_holds_peak_and_signal_level(self):
        """Fig. 3: with d_ISD = 2400 m and N = 8 'the signal power can be kept
        above -100 dBm'."""
        layout = CorridorLayout.with_uniform_repeaters(2400.0, 8)
        profile = compute_snr_profile(layout)
        assert np.min(profile.total_signal_dbm) > -100.0
        assert profile.min_snr_db > 29.30

    def test_noise_floor(self):
        """Thermal floor -132 dBm/subcarrier x terminal NF 5 dB."""
        assert LinkParams().terminal_noise_dbm == pytest.approx(-127.0)


class TestSectionIIIB:
    def test_site_powers(self):
        """'a high-power site consumes ... 560 W under full traffic load ...
        336 W under no load, and 224 W in sleep-mode'."""
        from repro.power.earth_model import PowerState
        from repro.power.profiles import hp_site_power_w
        assert hp_site_power_w(PowerState.FULL_LOAD) == 560.0
        assert hp_site_power_w(PowerState.NO_LOAD) == 336.0
        assert hp_site_power_w(PowerState.SLEEP) == 224.0

    def test_repeater_totals(self):
        """'the total power consumption amounts to 28.4 W ... no data traffic
        ... 24.3 W'; Table I sleep 4.72 W."""
        from repro.power.components import repeater_prototype_bill
        bill = repeater_prototype_bill()
        assert bill.no_load_w() == pytest.approx(24.26, abs=0.01)
        assert bill.sleep_w() == pytest.approx(4.72)
        assert bill.full_load_tdd_w() == pytest.approx(28.4, abs=0.4)


class TestSectionV:
    def test_max_isd_list_shape(self):
        """'The resulting maximum ISDs for one to ten nodes are: {1250, 1450,
        1600, 1800, 1950, 2100, 2250, 2400, 2500, 2650} m.'  The literal
        Eq. (2) model with the stated 29 dB criterion reproduces N = 1..4
        exactly and stays within 400 m over the tail."""
        sweep = sweep_max_isd(n_max=10, resolution_m=2.0, include_zero=False)
        model = sweep.as_list()
        assert model[:4] == [1250.0, 1450.0, 1600.0, 1800.0]
        for m, p in zip(model, constants.PAPER_MAX_ISD_M):
            assert abs(m - p) <= 400.0
        assert all(b >= a for a, b in zip(model, model[1:]))

    def test_full_load_seconds_16_to_55(self):
        """Table III: 'Operation under full load per train 16 s - 55 s'."""
        assert full_load_seconds_per_train(500.0) == pytest.approx(16.2, abs=0.1)
        assert full_load_seconds_per_train(2650.0) == pytest.approx(54.9, abs=0.1)

    def test_duty_cycles(self):
        """'full load operation on a 24-hour average for 2.85 % of the time at
        a 500 m ... ISD and 9.66 % at a 2650 m ... ISD'."""
        assert 100 * duty_cycle(500.0) == pytest.approx(2.85, abs=0.01)
        assert 100 * duty_cycle(2650.0) == pytest.approx(9.66, abs=0.01)

    def test_sleeping_repeater_5_17_w(self):
        """'One low-power repeater node then only consumes an average power of
        5.17 W (124.1 Wh per day)'."""
        avg = lp_node_average_power_w(sleeping=True)
        assert avg == pytest.approx(5.17, abs=0.005)
        assert avg * 24 == pytest.approx(124.1, abs=0.1)

    def test_continuous_below_50pct_from_three_nodes(self):
        """'The use of at least three low-power repeater nodes extends the
        high-power ISD to a minimum of 1600 m which reduces the average energy
        consumption per hour and kilometer to below 50 %'."""
        rows = {r.n_repeaters: r for r in fig4_rows()}
        for n in range(3, 11):
            assert rows[n].continuous_savings > 0.50

    def test_sleep_savings_57_and_74(self):
        """'a single repeater node ... yielding energy savings of 57 %. With
        ten low-power repeater nodes ... 74 % of energy reduction.'"""
        rows = {r.n_repeaters: r for r in fig4_rows()}
        assert 100 * rows[1].sleep_savings == pytest.approx(57.0, abs=0.5)
        assert 100 * rows[10].sleep_savings == pytest.approx(74.0, abs=0.5)

    def test_solar_savings_59_and_79(self):
        """'With just one intermediate low-power repeater node, 59 % less
        energy is consumed, and with ten ... 79 % less energy'."""
        rows = {r.n_repeaters: r for r in fig4_rows()}
        assert 100 * rows[1].solar_savings == pytest.approx(59.0, abs=0.7)
        assert 100 * rows[10].solar_savings == pytest.approx(79.0, abs=0.5)

    def test_abstract_savings_range_50_to_79(self):
        """Abstract: 'cut the average energy consumption by 50 % to 79 %'."""
        rows = [r for r in fig4_rows() if r.n_repeaters >= 1]
        all_savings = ([r.continuous_savings for r in rows]
                       + [r.sleep_savings for r in rows]
                       + [r.solar_savings for r in rows])
        assert min(all_savings) == pytest.approx(0.50, abs=0.01)
        assert max(all_savings) == pytest.approx(0.79, abs=0.01)


class TestSectionIVAndTableIV:
    def test_sizing_outcome(self):
        """Table IV: Madrid/Lyon standard system; 'doubling the battery
        capacity in Vienna and Berlin, and slightly larger PV modules for
        Berlin'."""
        expected = {"madrid": (540.0, 720.0), "lyon": (540.0, 720.0),
                    "vienna": (540.0, 1440.0), "berlin": (600.0, 1440.0)}
        for key, (pv, batt) in expected.items():
            sizing = find_minimal_system(LOCATIONS[key])
            assert (sizing.pv_peak_w, sizing.battery_capacity_wh) == (pv, batt), key
            assert sizing.result.zero_downtime

    def test_full_battery_days_ordering_and_levels(self):
        """Table IV 'Days with full battery [%]': 98.13 / 95.15 / 93.73 / 88.0
        — ordering must hold, absolute values within ~2.5 pp."""
        pcts = {}
        for key in ("madrid", "lyon", "vienna", "berlin"):
            sizing = find_minimal_system(LOCATIONS[key])
            pcts[key] = sizing.result.full_battery_days_pct
            assert pcts[key] == pytest.approx(
                constants.PAPER_FULL_BATTERY_DAYS_PCT[key], abs=2.5), key
        assert pcts["madrid"] > pcts["lyon"] > pcts["vienna"] > pcts["berlin"]


class TestCrossValidation:
    def test_des_confirms_analytic_fig4_point(self):
        """The event-driven simulation independently reproduces the analytic
        N=10 sleep-mode figure within 2 %."""
        layout = CorridorLayout.with_uniform_repeaters(2650.0, 10)
        analytic = segment_energy(layout, OperatingMode.SLEEP).w_per_km
        simulated = simulate_days(layout, OperatingMode.SLEEP)
        assert simulated.avg_w_per_km[0] == pytest.approx(analytic, rel=0.02)

    def test_conventional_reference_consistent_everywhere(self):
        analytic = conventional_reference_w_per_km()
        simulated = simulate_days(CorridorLayout.conventional())
        assert simulated.avg_w_per_km[0] == pytest.approx(analytic, rel=0.02)
