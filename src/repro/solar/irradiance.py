"""Synthetic weather: hourly plane-of-array irradiance for a simulated year.

Pipeline per simulated day:

1. draw a daily clearness index ``KT`` from the location's monthly mean with
   AR(1) day-to-day variability (weather persistence creates the multi-day
   dark spells that actually threaten an off-grid battery),
2. distribute the daily global horizontal irradiation over the daylight hours
   proportionally to extraterrestrial irradiance,
3. split global into beam and diffuse with the Erbs correlation,
4. transpose onto the module plane: geometric beam ratio + isotropic diffuse +
   ground reflection.

Everything is deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.kernels import ar1_scan
from repro.solar.climates import WINTER_MONTHS, Location, months_of_days
from repro.solar.geometry import SOLAR_CONSTANT_W_M2, SolarGeometry, eccentricity_factor

__all__ = ["WeatherParams", "DayIrradiance", "WeatherYear", "SyntheticWeather",
           "erbs_diffuse_fraction"]


def erbs_diffuse_fraction(kt) -> np.ndarray | float:
    """Diffuse fraction of global irradiance (Erbs et al. correlation)."""
    k = np.asarray(kt, dtype=float)
    low = 1.0 - 0.09 * k
    mid = (0.9511 - 0.1604 * k + 4.388 * k**2 - 16.638 * k**3 + 12.336 * k**4)
    out = np.where(k <= 0.22, low, np.where(k <= 0.80, mid, 0.165))
    return float(out) if np.ndim(kt) == 0 else out


@dataclass(frozen=True)
class WeatherParams:
    """Tuning of the synthetic weather generator.

    ``sigma_kt`` and ``rho`` control day-to-day clearness variability and
    persistence; both were calibrated against the paper's Table IV outcome
    (DESIGN.md section 3).  ``albedo`` is the ground reflectance used for the
    reflected irradiance on the vertical module.
    """

    sigma_kt: float = 0.13
    rho: float = 0.60
    kt_min: float = 0.05
    kt_max: float = 0.78
    albedo: float = 0.20

    def __post_init__(self) -> None:
        if not 0.0 <= self.sigma_kt < 0.5:
            raise ConfigurationError(f"sigma_kt must be in [0, 0.5), got {self.sigma_kt}")
        if not 0.0 <= self.rho < 1.0:
            raise ConfigurationError(f"rho must be in [0, 1), got {self.rho}")
        if not 0.0 < self.kt_min < self.kt_max <= 1.0:
            raise ConfigurationError(
                f"need 0 < kt_min < kt_max <= 1, got {self.kt_min}, {self.kt_max}")
        if not 0.0 <= self.albedo <= 1.0:
            raise ConfigurationError(f"albedo must be in [0, 1], got {self.albedo}")


@dataclass(frozen=True)
class DayIrradiance:
    """Hourly irradiance of one simulated day.

    ``poa_w_m2`` is the plane-of-array irradiance on the module; ``ghi_w_m2``
    the global horizontal; both are 24-vectors of hourly means [W/m²].
    """

    day_of_year: int
    kt: float
    ghi_w_m2: np.ndarray
    poa_w_m2: np.ndarray

    @property
    def daily_ghi_wh_m2(self) -> float:
        return float(np.sum(self.ghi_w_m2))

    @property
    def daily_poa_wh_m2(self) -> float:
        return float(np.sum(self.poa_w_m2))


@dataclass(frozen=True)
class WeatherYear:
    """A full synthesized weather year as day-axis tensors.

    The tensor twin of iterating :meth:`SyntheticWeather.year`: row ``i``
    holds the same 24 hourly values as the ``i``-th :class:`DayIrradiance`
    (bit-identical; asserted in the test suite).  This is the shape the
    batched off-grid engine (:mod:`repro.solar.batch`) consumes and caches.
    """

    start_day_of_year: int
    #: Day-of-year (1..365) of each simulated day, shape ``(days,)``.
    day_of_year: np.ndarray
    #: Month index (0..11) of each simulated day, shape ``(days,)``.
    month: np.ndarray
    #: Daily clearness index, shape ``(days,)``.
    kt: np.ndarray
    #: Hourly global horizontal irradiance [W/m²], shape ``(days, 24)``.
    ghi_w_m2: np.ndarray
    #: Hourly plane-of-array irradiance [W/m²], shape ``(days, 24)``.
    poa_w_m2: np.ndarray

    @property
    def days(self) -> int:
        return int(self.day_of_year.shape[0])

    @property
    def daily_poa_wh_m2(self) -> np.ndarray:
        """Per-day plane-of-array irradiation [Wh/m²], shape ``(days,)``."""
        return np.sum(self.poa_w_m2, axis=1)

    def monthly_poa_kwh_m2(self) -> np.ndarray:
        """Monthly plane-of-array irradiation sums [kWh/m²], shape ``(12,)``."""
        sums = np.zeros(12)
        np.add.at(sums, self.month, self.daily_poa_wh_m2 / 1000.0)
        return sums


@dataclass
class SyntheticWeather:
    """Deterministic (seeded) synthetic weather for one location and module.

    When ``params`` is omitted, the variability parameters come from the
    location's calibrated weather character.
    """

    location: Location
    geometry: SolarGeometry | None = None
    params: WeatherParams | None = None
    seed: int = 2022

    def __post_init__(self) -> None:
        if self.geometry is None:
            self.geometry = SolarGeometry(self.location.latitude_deg)
        if self.params is None:
            self.params = WeatherParams(
                sigma_kt=self.location.sigma_kt,
                rho=self.location.rho,
                kt_min=self.location.kt_min,
            )

    # -- daily clearness series ----------------------------------------------

    def daily_clearness(self, days: int = 365,
                        start_day_of_year: int = 1) -> np.ndarray:
        """AR(1) daily clearness-index series around the monthly means.

        Vectorized over the day axis: the whole normal vector is drawn up
        front (one generator call yields the same stream as per-day draws),
        the monthly means come from the precomputed DOY→month lookup, and
        the AR(1) recursion runs through the shared
        :func:`repro.kernels.ar1_scan` kernel — a zero-initialized series
        is the same recurrence with the innovation scale on the first
        sample.  It matches the step-loop recurrence within 1e-9 (well
        inside the golden-snapshot tolerance).
        """
        rng = np.random.default_rng(self.seed)
        p = self.params
        doys = (start_day_of_year - 1 + np.arange(days)) % 365 + 1
        means = self.location.monthly_clearness_table()[months_of_days(doys)]
        innovation = np.sqrt(max(1e-12, 1.0 - p.rho**2))
        steps = max(days - 1, 1)
        z = ar1_scan(rng.standard_normal(days), np.full(steps, p.rho),
                     np.full(steps, innovation), innovation)
        return np.clip(means + p.sigma_kt * z, p.kt_min, p.kt_max)

    # -- hourly synthesis ------------------------------------------------------

    def day_irradiance(self, day_of_year: int, kt: float) -> DayIrradiance:
        """Hourly GHI and plane-of-array irradiance for one day."""
        if not 1 <= day_of_year <= 365:
            raise ConfigurationError(f"day-of-year must be 1..365, got {day_of_year}")
        geo = self.geometry
        hours = np.arange(24) + 0.5  # hour centers, solar time
        w = geo.hour_angles_rad(hours)
        cos_z = np.maximum(geo.cos_zenith(day_of_year, w), 0.0)

        # Hourly extraterrestrial on horizontal, then scale by daily KT.
        i0 = SOLAR_CONSTANT_W_M2 * eccentricity_factor(day_of_year) * cos_z
        ghi = kt * i0

        fd = erbs_diffuse_fraction(kt)
        diffuse = fd * ghi
        beam_h = ghi - diffuse

        cos_i = geo.cos_incidence(day_of_year, w)
        # Beam ratio guarded against the sunrise/sunset singularity.
        rb = np.where(cos_z > 0.087, np.maximum(cos_i, 0.0) / np.maximum(cos_z, 0.087), 0.0)
        beta = np.deg2rad(geo.tilt_deg)
        sky_view = (1.0 + np.cos(beta)) / 2.0
        ground_view = (1.0 - np.cos(beta)) / 2.0
        poa = beam_h * rb + diffuse * sky_view + ghi * self.params.albedo * ground_view

        month = self.location.month_of_day(day_of_year)
        if self.location.is_winter(month):
            poa = poa * (1.0 - self.location.winter_reliability_derate)

        return DayIrradiance(day_of_year=day_of_year, kt=float(kt),
                             ghi_w_m2=ghi, poa_w_m2=np.maximum(poa, 0.0))

    def year(self, days: int = 365, start_day_of_year: int = 1):
        """Yield a :class:`DayIrradiance` for each simulated day.

        ``start_day_of_year`` shifts the simulation phase; starting in autumn
        (e.g. 274 = Oct 1) places one *continuous* winter mid-simulation,
        which is the correct stress test for battery autonomy (a Jan-Dec year
        splits the winter across the two ends and starts it with a full
        battery).
        """
        if not 1 <= start_day_of_year <= 365:
            raise ConfigurationError(
                f"start day-of-year must be 1..365, got {start_day_of_year}")
        kts = self.daily_clearness(days, start_day_of_year)
        for i in range(days):
            doy = (start_day_of_year - 1 + i) % 365 + 1
            yield self.day_irradiance(doy, float(kts[i]))

    def year_tensor(self, days: int = 365, start_day_of_year: int = 1) -> WeatherYear:
        """Synthesize the whole year as one ``(days, 24)`` tensor.

        Bit-identical to stacking :meth:`year`'s per-day outputs, but computed
        in a single pass over the day axis: the solar-geometry broadcasts put
        the day dimension on the rows and the 24 hour centers on the columns.
        """
        if not 1 <= start_day_of_year <= 365:
            raise ConfigurationError(
                f"start day-of-year must be 1..365, got {start_day_of_year}")
        if days <= 0:
            raise ConfigurationError(f"days must be positive, got {days}")
        geo = self.geometry
        kt = self.daily_clearness(days, start_day_of_year)
        doys = (start_day_of_year - 1 + np.arange(days)) % 365 + 1
        months = months_of_days(doys)

        hours = np.arange(24) + 0.5  # hour centers, solar time
        w = geo.hour_angles_rad(hours)
        doy_col = doys[:, None]
        cos_z = np.maximum(geo.cos_zenith(doy_col, w), 0.0)

        i0 = SOLAR_CONSTANT_W_M2 * eccentricity_factor(doy_col) * cos_z
        ghi = kt[:, None] * i0

        fd = erbs_diffuse_fraction(kt)
        diffuse = fd[:, None] * ghi
        beam_h = ghi - diffuse

        cos_i = geo.cos_incidence(doy_col, w)
        rb = np.where(cos_z > 0.087, np.maximum(cos_i, 0.0) / np.maximum(cos_z, 0.087), 0.0)
        beta = np.deg2rad(geo.tilt_deg)
        sky_view = (1.0 + np.cos(beta)) / 2.0
        ground_view = (1.0 - np.cos(beta)) / 2.0
        poa = beam_h * rb + diffuse * sky_view + ghi * self.params.albedo * ground_view

        winter = np.isin(months, WINTER_MONTHS)
        poa[winter] = poa[winter] * (1.0 - self.location.winter_reliability_derate)

        return WeatherYear(start_day_of_year=start_day_of_year,
                           day_of_year=doys, month=months, kt=kt,
                           ghi_w_m2=ghi, poa_w_m2=np.maximum(poa, 0.0))

    def monthly_poa_kwh_m2(self) -> np.ndarray:
        """Monthly plane-of-array irradiation sums of the simulated year.

        Reuses one :meth:`year_tensor` synthesis instead of re-yielding
        per-day objects (this used to be a second full weather synthesis per
        calibration pass).
        """
        return self.year_tensor().monthly_poa_kwh_m2()
