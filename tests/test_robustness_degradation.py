"""Tests for Monte-Carlo shadowing robustness and battery-aging projection."""

import pytest

from repro.corridor.layout import CorridorLayout
from repro.errors import ConfigurationError
from repro.optimize.mc import outage_matrix
from repro.optimize.robustness import robust_max_isd
from repro.propagation.fading import LogNormalShadowing
from repro.radio.link import compute_snr_profile
from repro.solar.climates import LOCATIONS
from repro.solar.degradation import AgingParams, project_lifetime


def _outage(layout, shadowing=None, trials=100, resolution_m=10.0,
            seed=2022):
    """Outage probability of one layout's profile (one-row outage matrix)."""
    profile = compute_snr_profile(layout, resolution_m=resolution_m)
    matrix = outage_matrix([profile], shadowing, trials=trials, seed=seed)
    return float(matrix.outage_probability[0])


class TestOutage:
    def test_comfortable_layout_low_outage(self):
        # At 500 m the margin is ~5 dB: mild shadowing rarely breaks it.
        layout = CorridorLayout.conventional()
        assert _outage(layout, LogNormalShadowing(sigma_db=2.0)) < 0.2

    def test_marginal_layout_high_outage(self):
        # The registered maximum ISD has near-zero margin by construction:
        # any shadowing causes frequent outage.
        layout = CorridorLayout.with_uniform_repeaters(1250.0, 1)
        assert _outage(layout, LogNormalShadowing(sigma_db=4.0)) > 0.5

    def test_stronger_shadowing_more_outage(self):
        layout = CorridorLayout.conventional()
        mild = _outage(layout, LogNormalShadowing(sigma_db=1.0))
        harsh = _outage(layout, LogNormalShadowing(sigma_db=6.0))
        assert harsh >= mild

    def test_deterministic_given_seed(self):
        layout = CorridorLayout.with_uniform_repeaters(1250.0, 1)
        assert (_outage(layout, trials=50, seed=3)
                == _outage(layout, trials=50, seed=3))

    def test_zero_sigma_matches_deterministic(self):
        layout = CorridorLayout.with_uniform_repeaters(1250.0, 1)
        # Deterministic min SNR is above the 29 dB criterion: no outage.
        assert _outage(layout, LogNormalShadowing(sigma_db=0.0), trials=10,
                       resolution_m=5.0) == 0.0

    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigurationError):
            _outage(CorridorLayout.conventional(), trials=0)


class TestRobustIsd:
    def test_robust_isd_below_deterministic(self):
        from repro.optimize.isd import max_isd_for_n
        deterministic, _ = max_isd_for_n(1, resolution_m=5.0)
        robust, outage = robust_max_isd(
            1, target_outage=0.1, shadowing=LogNormalShadowing(sigma_db=4.0),
            trials=40, resolution_m=10.0, isd_max_m=1500.0)
        assert robust < deterministic
        assert outage <= 0.1

    def test_rejects_bad_target(self):
        with pytest.raises(ConfigurationError):
            robust_max_isd(1, target_outage=0.0)


class TestDegradation:
    def test_madrid_survives_ten_years(self):
        result = project_lifetime(LOCATIONS["madrid"], pv_peak_w=540.0,
                                  battery_capacity_wh=720.0, service_years=10)
        assert result.survives(10)
        assert result.first_downtime_year is None

    def test_capacities_fade_monotonically(self):
        result = project_lifetime(LOCATIONS["madrid"], 540.0, 720.0,
                                  service_years=5)
        batteries = [y.battery_capacity_wh for y in result.years]
        pvs = [y.pv_peak_w for y in result.years]
        assert all(b2 < b1 for b1, b2 in zip(batteries, batteries[1:]))
        assert all(p2 < p1 for p1, p2 in zip(pvs, pvs[1:]))

    def test_berlin_tight_system_eventually_fails(self):
        # Berlin's Table IV config is sized at the margin; with aggressive
        # fade it develops downtime within the horizon.
        aggressive = AgingParams(calendar_fade_per_year=0.05,
                                 cycle_fade_per_efc=0.001,
                                 pv_fade_per_year=0.02)
        result = project_lifetime(LOCATIONS["berlin"], 600.0, 1440.0,
                                  service_years=10, aging=aggressive)
        assert result.first_downtime_year is not None
        assert result.total_unmet_hours > 0

    def test_efc_accumulates(self):
        result = project_lifetime(LOCATIONS["vienna"], 540.0, 1440.0,
                                  service_years=3)
        for year in result.years:
            assert year.equivalent_full_cycles > 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            project_lifetime(LOCATIONS["madrid"], 540.0, 720.0, service_years=0)
        with pytest.raises(ConfigurationError):
            project_lifetime(LOCATIONS["madrid"], 0.0, 720.0)
        with pytest.raises(ConfigurationError):
            AgingParams(calendar_fade_per_year=0.5)
