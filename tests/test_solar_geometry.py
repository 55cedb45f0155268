"""Tests for solar geometry and the synthetic irradiance generator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.solar import DayWeather, is_winter, month_of_day
from repro.errors import ConfigurationError
from repro.solar.climates import LOCATIONS, MONTH_DAYS, MONTH_FIRST_DOY, Location
from repro.solar.geometry import (
    SolarGeometry,
    declination_rad,
    eccentricity_factor,
    sunset_hour_angle_rad,
)
from repro.solar.irradiance import SyntheticWeather, WeatherParams, erbs_diffuse_fraction


class TestDeclination:
    def test_summer_solstice_near_23_45(self):
        # Around June 21 (doy 172).
        assert np.rad2deg(declination_rad(172)) == pytest.approx(23.45, abs=0.1)

    def test_winter_solstice_near_minus_23_45(self):
        assert np.rad2deg(declination_rad(355)) == pytest.approx(-23.45, abs=0.1)

    def test_equinox_near_zero(self):
        assert abs(np.rad2deg(declination_rad(81))) < 1.0

    def test_eccentricity_range(self):
        days = np.arange(1, 366)
        e0 = eccentricity_factor(days)
        assert np.all(e0 > 0.96) and np.all(e0 < 1.04)


class TestSunset:
    def test_equator_equinox_6pm(self):
        ws = sunset_hour_angle_rad(0.0, 0.0)
        assert np.rad2deg(ws) == pytest.approx(90.0)

    def test_berlin_winter_short_day(self):
        lat = np.deg2rad(52.52)
        ws = sunset_hour_angle_rad(lat, declination_rad(355))
        day_length_h = 2 * np.rad2deg(ws) / 15.0
        assert 7.0 < day_length_h < 8.5

    def test_berlin_summer_long_day(self):
        lat = np.deg2rad(52.52)
        ws = sunset_hour_angle_rad(lat, declination_rad(172))
        day_length_h = 2 * np.rad2deg(ws) / 15.0
        assert 16.0 < day_length_h < 17.5


class TestSolarGeometry:
    def test_noon_zenith_madrid_equinox(self):
        geo = SolarGeometry(40.42)
        cos_z = geo.cos_zenith(81, 0.0)
        # Solar elevation at noon equinox = 90 - latitude.
        assert np.rad2deg(np.arccos(cos_z)) == pytest.approx(40.42, abs=1.0)

    def test_vertical_south_winter_high_incidence(self):
        # Low winter sun shines nearly perpendicular onto a vertical panel.
        geo = SolarGeometry(48.2, tilt_deg=90.0, azimuth_deg=0.0)
        cos_i = geo.cos_incidence(355, 0.0)
        cos_z = geo.cos_zenith(355, 0.0)
        assert cos_i > cos_z  # beam favors the vertical panel in winter

    def test_vertical_south_summer_low_incidence(self):
        geo = SolarGeometry(48.2, tilt_deg=90.0, azimuth_deg=0.0)
        cos_i = geo.cos_incidence(172, 0.0)
        cos_z = geo.cos_zenith(172, 0.0)
        assert cos_i < cos_z  # high summer sun mostly misses the vertical panel

    def test_horizontal_tilt_incidence_equals_zenith(self):
        geo = SolarGeometry(45.0, tilt_deg=0.0)
        for doy in (10, 100, 200, 300):
            w = geo.hour_angles_rad(np.array([9.0, 12.0, 15.0]))
            assert np.allclose(geo.cos_incidence(doy, w), geo.cos_zenith(doy, w), atol=1e-9)

    def test_daily_extraterrestrial_summer_exceeds_winter(self):
        geo = SolarGeometry(48.2)
        assert geo.daily_extraterrestrial_wh_m2(172) > 2.5 * geo.daily_extraterrestrial_wh_m2(355)

    def test_h0_magnitude_sane(self):
        # Mid-latitude summer H0 is ~11-12 kWh/m²/day.
        geo = SolarGeometry(48.2)
        assert 10_000 < geo.daily_extraterrestrial_wh_m2(172) < 13_000

    def test_rejects_bad_latitude(self):
        with pytest.raises(ConfigurationError):
            SolarGeometry(91.0)

    def test_rejects_bad_tilt(self):
        with pytest.raises(ConfigurationError):
            SolarGeometry(45.0, tilt_deg=120.0)


class TestErbs:
    def test_overcast_mostly_diffuse(self):
        assert erbs_diffuse_fraction(0.1) > 0.95

    def test_clear_mostly_beam(self):
        assert erbs_diffuse_fraction(0.85) == pytest.approx(0.165)

    def test_continuous_at_022(self):
        below = erbs_diffuse_fraction(0.2199)
        above = erbs_diffuse_fraction(0.2201)
        assert below == pytest.approx(above, abs=0.01)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_fraction_in_unit_interval(self, kt):
        fd = erbs_diffuse_fraction(kt)
        assert 0.0 <= fd <= 1.0


class TestClimates:
    def test_four_locations(self):
        assert set(LOCATIONS) == {"madrid", "lyon", "vienna", "berlin"}

    def test_annual_ghi_ordering(self):
        ghi = {k: LOCATIONS[k].annual_ghi_kwh_m2 for k in LOCATIONS}
        assert ghi["madrid"] > ghi["lyon"] > ghi["vienna"] > ghi["berlin"]

    def test_annual_ghi_realistic(self):
        assert 1500 < LOCATIONS["madrid"].annual_ghi_kwh_m2 < 2000
        assert 900 < LOCATIONS["berlin"].annual_ghi_kwh_m2 < 1300

    def test_monthly_clearness_in_range(self):
        for loc in LOCATIONS.values():
            for month in range(12):
                kt = loc.monthly_clearness_index(month)
                assert 0.1 < kt < 0.75, f"{loc.name} month {month}: {kt}"

    def test_month_of_day(self):
        assert month_of_day(1) == 0
        assert month_of_day(31) == 0
        assert month_of_day(32) == 1
        assert month_of_day(365) == 11

    def test_month_tables_consistent(self):
        assert sum(MONTH_DAYS) == 365
        for m in range(11):
            assert MONTH_FIRST_DOY[m + 1] == MONTH_FIRST_DOY[m] + MONTH_DAYS[m]

    def test_rejects_wrong_month_count(self):
        with pytest.raises(ConfigurationError):
            Location("X", 45.0, 0.0, monthly_ghi_kwh_m2=(100.0,) * 11)

    def test_is_winter(self):
        assert is_winter(0) and is_winter(11)
        assert not is_winter(5)


class TestSyntheticWeather:
    def test_deterministic_for_seed(self):
        loc = LOCATIONS["lyon"]
        a = SyntheticWeather(loc, seed=5).daily_clearness(100)
        b = SyntheticWeather(loc, seed=5).daily_clearness(100)
        assert np.allclose(a, b)

    def test_different_seeds_differ(self):
        loc = LOCATIONS["lyon"]
        a = SyntheticWeather(loc, seed=5).daily_clearness(100)
        b = SyntheticWeather(loc, seed=6).daily_clearness(100)
        assert not np.allclose(a, b)

    def test_clearness_within_bounds(self):
        loc = LOCATIONS["berlin"]
        weather = SyntheticWeather(loc)
        kt = weather.daily_clearness(365)
        assert np.all(kt >= weather.params.kt_min)
        assert np.all(kt <= weather.params.kt_max)

    def test_day_irradiance_night_zero(self):
        weather = DayWeather(LOCATIONS["madrid"])
        day = weather.day_irradiance(180, 0.6)
        assert day.ghi_w_m2[0] == 0.0  # midnight hours dark
        assert day.ghi_w_m2[23] == 0.0
        assert day.ghi_w_m2[12] > 0.0

    def test_poa_nonnegative(self):
        weather = DayWeather(LOCATIONS["berlin"])
        for doy in (1, 91, 182, 274):
            day = weather.day_irradiance(doy, 0.4)
            assert np.all(day.poa_w_m2 >= 0.0)

    def test_daily_ghi_magnitude(self):
        # Madrid June at KT 0.6: GHI should be several kWh/m²/day.
        weather = DayWeather(LOCATIONS["madrid"])
        day = weather.day_irradiance(172, 0.6)
        assert 5000 < day.daily_ghi_wh_m2 < 9000

    def test_winter_vertical_gain(self):
        # In winter the vertical panel receives more than the horizontal GHI
        # on clear days (low sun, Rb > 1).
        weather = DayWeather(LOCATIONS["madrid"])
        day = weather.day_irradiance(355, 0.6)
        assert day.daily_poa_wh_m2 > day.daily_ghi_wh_m2

    def test_summer_vertical_loss(self):
        weather = DayWeather(LOCATIONS["madrid"])
        day = weather.day_irradiance(172, 0.6)
        assert day.daily_poa_wh_m2 < day.daily_ghi_wh_m2

    def test_year_has_365_days(self):
        weather = DayWeather(LOCATIONS["lyon"])
        days = list(weather.year())
        assert len(days) == 365

    def test_year_start_phase(self):
        weather = DayWeather(LOCATIONS["lyon"])
        days = list(weather.year(days=3, start_day_of_year=274))
        assert [d.day_of_year for d in days] == [274, 275, 276]

    def test_year_wraps(self):
        weather = DayWeather(LOCATIONS["lyon"])
        days = list(weather.year(days=100, start_day_of_year=300))
        assert days[65].day_of_year == 365
        assert days[66].day_of_year == 1

    def test_monthly_poa_sums(self):
        weather = DayWeather(LOCATIONS["madrid"])
        monthly = weather.monthly_poa_kwh_m2()
        assert monthly.shape == (12,)
        assert np.all(monthly > 0)

    def test_rejects_bad_day(self):
        weather = DayWeather(LOCATIONS["madrid"])
        with pytest.raises(ConfigurationError):
            weather.day_irradiance(0, 0.5)
        with pytest.raises(ConfigurationError):
            weather.day_irradiance(366, 0.5)

    def test_weather_params_validation(self):
        with pytest.raises(ConfigurationError):
            WeatherParams(sigma_kt=0.6)
        with pytest.raises(ConfigurationError):
            WeatherParams(rho=1.0)
        with pytest.raises(ConfigurationError):
            WeatherParams(kt_min=0.5, kt_max=0.4)
        with pytest.raises(ConfigurationError):
            WeatherParams(albedo=1.5)
