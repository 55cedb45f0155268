"""Tests for the analytic energy model — the paper's headline numbers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import constants
from repro.corridor.layout import CorridorLayout
from repro.energy.analysis import (
    compare_deployments,
    conventional_reference_w_per_km,
    fig4_rows,
    savings_fraction,
)
from repro.energy.duty import (
    DonorDutyModel,
    EnergyParams,
    donor_average_power_w,
    hp_mast_average_power_w,
    lp_node_average_power_w,
)
from repro.energy.scenario import OperatingMode, segment_energy
from repro.errors import ConfigurationError


class TestNodeAverages:
    def test_lp_sleeping_is_5_17_w(self):
        assert lp_node_average_power_w(sleeping=True) == pytest.approx(5.17, abs=0.005)

    def test_lp_daily_energy_124_wh(self):
        daily = lp_node_average_power_w(sleeping=True) * 24.0
        assert daily == pytest.approx(124.1, abs=0.1)

    def test_lp_continuous_near_no_load(self):
        avg = lp_node_average_power_w(sleeping=False)
        assert avg == pytest.approx(24.34, abs=0.02)

    def test_hp_mast_conventional_average(self):
        # duty 2.85 %: 0.0285*560 + 0.9715*224 = 233.6 W per mast.
        assert hp_mast_average_power_w(500.0) == pytest.approx(233.6, abs=0.1)

    def test_hp_mast_without_sleep(self):
        awake = hp_mast_average_power_w(500.0, sleeping=False)
        assert awake == pytest.approx(0.0285 * 560 + 0.9715 * 336, abs=0.3)

    def test_hp_mast_rejects_zero_isd(self):
        with pytest.raises(ConfigurationError):
            hp_mast_average_power_w(0.0)

    def test_donor_count_rule_in_power(self):
        one = CorridorLayout.with_uniform_repeaters(1250.0, 1)
        many = CorridorLayout.with_uniform_repeaters(2650.0, 10)
        p = EnergyParams()
        assert donor_average_power_w(one, p) == pytest.approx(
            lp_node_average_power_w(p), abs=1e-9)
        assert donor_average_power_w(many, p) == pytest.approx(
            2 * lp_node_average_power_w(p), abs=1e-9)

    def test_donor_zero_for_conventional(self):
        assert donor_average_power_w(CorridorLayout.conventional()) == 0.0

    def test_donor_span_model_higher_for_many_nodes(self):
        layout = CorridorLayout.with_uniform_repeaters(2650.0, 10)
        node_model = donor_average_power_w(layout, EnergyParams())
        span_model = donor_average_power_w(
            layout, EnergyParams(donor_duty=DonorDutyModel.SPAN))
        assert span_model > node_model

    def test_donor_span_equals_node_for_single(self):
        layout = CorridorLayout.with_uniform_repeaters(1250.0, 1)
        node_model = donor_average_power_w(layout, EnergyParams())
        span_model = donor_average_power_w(
            layout, EnergyParams(donor_duty=DonorDutyModel.SPAN))
        assert span_model == pytest.approx(node_model, abs=1e-9)

    def test_params_validation(self):
        with pytest.raises(ConfigurationError):
            EnergyParams(lp_section_m=0.0)
        with pytest.raises(ConfigurationError):
            EnergyParams(lp_sleep_w=30.0)  # sleep above no-load


class TestConventionalReference:
    def test_467_w_per_km(self):
        assert conventional_reference_w_per_km() == pytest.approx(467.2, abs=0.5)
        # Fewer masts per km on a longer conventional ISD.
        assert conventional_reference_w_per_km(isd_m=900.0) \
            < conventional_reference_w_per_km()

    def test_savings_of_reference_is_zero(self):
        conv = segment_energy(CorridorLayout.conventional(), OperatingMode.SLEEP)
        assert savings_fraction(conv) == pytest.approx(0.0, abs=1e-9)


class TestSegmentEnergy:
    def test_solar_mode_zero_lp_mains(self):
        layout = CorridorLayout.with_uniform_repeaters(2650.0, 10)
        solar = segment_energy(layout, OperatingMode.SOLAR)
        assert solar.service_w == 0.0
        assert solar.donor_w == 0.0
        assert solar.offgrid_w > 0.0
        assert solar.total_mains_w == solar.hp_w

    def test_sleep_below_continuous(self):
        layout = CorridorLayout.with_uniform_repeaters(2000.0, 5)
        cont = segment_energy(layout, OperatingMode.CONTINUOUS)
        sleep = segment_energy(layout, OperatingMode.SLEEP)
        assert sleep.w_per_km < cont.w_per_km

    def test_solar_below_sleep(self):
        layout = CorridorLayout.with_uniform_repeaters(2000.0, 5)
        sleep = segment_energy(layout, OperatingMode.SLEEP)
        solar = segment_energy(layout, OperatingMode.SOLAR)
        assert solar.w_per_km < sleep.w_per_km

    def test_wh_per_day_consistency(self):
        layout = CorridorLayout.with_uniform_repeaters(1600.0, 3)
        e = segment_energy(layout)
        assert e.wh_per_day_per_km == pytest.approx(24 * e.w_per_km)
        assert e.kwh_per_year_per_km == pytest.approx(24 * 365 * e.w_per_km / 1000)

    @settings(deadline=None)
    @given(st.integers(min_value=1, max_value=10))
    def test_modes_strictly_ordered(self, n):
        isd = constants.PAPER_MAX_ISD_M[n - 1]
        layout = CorridorLayout.with_uniform_repeaters(isd, n)
        cont = segment_energy(layout, OperatingMode.CONTINUOUS).w_per_km
        sleep = segment_energy(layout, OperatingMode.SLEEP).w_per_km
        solar = segment_energy(layout, OperatingMode.SOLAR).w_per_km
        assert solar < sleep < cont


class TestPaperHeadlines:
    """The Section V savings figures, exactly as published."""

    def test_sleep_savings_n1_57pct(self):
        rows = fig4_rows()
        row = next(r for r in rows if r.n_repeaters == 1)
        assert 100 * row.sleep_savings == pytest.approx(57.0, abs=0.5)

    def test_sleep_savings_n10_74pct(self):
        rows = fig4_rows()
        row = next(r for r in rows if r.n_repeaters == 10)
        assert 100 * row.sleep_savings == pytest.approx(74.0, abs=0.5)

    def test_solar_savings_n1_59pct(self):
        rows = fig4_rows()
        row = next(r for r in rows if r.n_repeaters == 1)
        assert 100 * row.solar_savings == pytest.approx(59.0, abs=0.7)

    def test_solar_savings_n10_79pct(self):
        rows = fig4_rows()
        row = next(r for r in rows if r.n_repeaters == 10)
        assert 100 * row.solar_savings == pytest.approx(79.0, abs=0.5)

    def test_continuous_crosses_50pct_by_n3(self):
        # "The use of at least three low-power repeater nodes ... reduces the
        # average energy consumption ... to below 50 %".
        rows = fig4_rows()
        for n in (3, 4, 5, 6, 7, 8, 9, 10):
            row = next(r for r in rows if r.n_repeaters == n)
            assert row.continuous_savings > 0.50, f"N={n}"

    def test_savings_monotone_in_n_sleep(self):
        rows = [r for r in fig4_rows() if r.n_repeaters >= 1]
        savings = [r.sleep_savings for r in rows]
        assert all(b > a for a, b in zip(savings, savings[1:]))

    def test_conventional_row_present(self):
        rows = fig4_rows()
        assert rows[0].n_repeaters == 0
        assert rows[0].isd_m == 500.0
        assert rows[0].sleep_savings == pytest.approx(0.0, abs=1e-9)

    def test_fig4_rejects_bad_counts(self):
        with pytest.raises(ConfigurationError):
            fig4_rows({0: 500.0})


class TestCorridorComparison:
    def test_100km_corridor(self):
        layout = CorridorLayout.with_uniform_repeaters(2650.0, 10)
        cmp = compare_deployments(layout, corridor_km=100.0)
        assert cmp.savings_fraction == pytest.approx(0.743, abs=0.005)
        assert cmp.saved_mwh_per_year > 0
        assert cmp.baseline_mwh_per_year > cmp.proposed_mwh_per_year

    def test_annual_energy_scale(self):
        # Conventional 467 W/km * 100 km * 8760 h = 409 MWh/yr.
        layout = CorridorLayout.conventional()
        cmp = compare_deployments(layout, corridor_km=100.0)
        assert cmp.baseline_mwh_per_year == pytest.approx(409.0, rel=0.01)

    def test_rejects_zero_length(self):
        with pytest.raises(ConfigurationError):
            compare_deployments(CorridorLayout.conventional(), corridor_km=0.0)
