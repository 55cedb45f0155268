"""Scalar solar oracles: the per-day weather synthesis, the mutable battery
bucket, the per-system hourly year walk and the year-by-year
battery-lifetime loop.

The off-grid engine (:func:`repro.solar.batch.simulate_systems`)
synthesizes a whole weather year as one tensor
(:meth:`repro.solar.irradiance.SyntheticWeather.year_tensor`) and runs the
battery recurrence through the ``soc_scan`` kernel on
:class:`repro.solar.battery.Battery` parameters.  The originals they
replaced live here: :class:`DayWeather` yields one :class:`DayIrradiance`
per simulated day, :class:`BatteryBucket` steps a state of charge hour by
hour, and :func:`simulate_year` walks both.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.solar.battery import Battery
from repro.solar.degradation import (
    AgingParams,
    LifetimeResult,
    YearOutcome,
    _equivalent_full_cycles,
)
from repro.solar.geometry import SOLAR_CONSTANT_W_M2, eccentricity_factor
from repro.solar.irradiance import SyntheticWeather, erbs_diffuse_fraction
from repro.solar.offgrid import OffGridResult, OffGridSystem
from repro.solar.pv import PvArray

__all__ = ["BatteryBucket", "DayIrradiance", "DayWeather", "simulate_year",
           "project_lifetime_scalar"]


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


class DayWeather(SyntheticWeather):
    """:class:`~repro.solar.irradiance.SyntheticWeather` synthesized one day
    at a time; row ``i`` of :meth:`year_tensor` is the ``i``-th day of
    :meth:`year`, bit for bit."""

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
        """Yield a :class:`DayIrradiance` for each simulated day (the phase
        of :meth:`year_tensor`)."""
        if not 1 <= start_day_of_year <= 365:
            raise ConfigurationError(
                f"start day-of-year must be 1..365, got {start_day_of_year}")
        kts = self.daily_clearness(days, start_day_of_year)
        for i in range(days):
            doy = (start_day_of_year - 1 + i) % 365 + 1
            yield self.day_irradiance(doy, float(kts[i]))


@dataclass
class BatteryBucket:
    """A :class:`~repro.solar.battery.Battery` with a state of charge
    (``soc``, a fraction of capacity) stepped by charges and discharges."""

    battery: Battery = field(default_factory=Battery)
    soc: float = 1.0

    def __post_init__(self) -> None:
        self.reset(self.soc)

    @property
    def stored_wh(self) -> float:
        """Energy above empty (not above the cutoff)."""
        return self.soc * self.battery.capacity_wh

    @property
    def usable_wh(self) -> float:
        """Energy available before the controller cuts the load off."""
        return max(0.0, (self.soc - self.battery.discharge_cutoff)
                   * self.battery.capacity_wh)

    @property
    def headroom_wh(self) -> float:
        """Energy the battery can still absorb."""
        return (1.0 - self.soc) * self.battery.capacity_wh

    @property
    def is_full(self) -> bool:
        return self.soc >= 1.0 - 1e-9

    def charge(self, energy_wh: float) -> float:
        """Charge with PV surplus; returns the energy actually absorbed
        (measured at the input, before efficiency)."""
        if energy_wh < 0:
            raise ConfigurationError(f"charge energy must be >= 0, got {energy_wh}")
        efficiency = self.battery.charge_efficiency
        taken = min(energy_wh, self.headroom_wh / efficiency)
        self.soc = min(1.0, self.soc + taken * efficiency / self.battery.capacity_wh)
        return taken

    def discharge(self, energy_wh: float) -> float:
        """Supply the load; returns the energy actually delivered (cutoff
        limited)."""
        if energy_wh < 0:
            raise ConfigurationError(f"discharge energy must be >= 0, got {energy_wh}")
        delivered = min(energy_wh, self.usable_wh)
        self.soc -= delivered / self.battery.capacity_wh
        return delivered

    def reset(self, soc: float = 1.0) -> None:
        """Reset the state of charge (start of a simulation)."""
        if not 0.0 <= soc <= 1.0:
            raise ConfigurationError(f"SoC must be in [0, 1], got {soc}")
        self.soc = soc


def simulate_year(system: OffGridSystem, days: int = 365,
                  initial_soc: float = 1.0,
                  start_day_of_year: int | None = None) -> OffGridResult:
    """Hourly energy balance of one system over a synthetic year.

    Surplus PV charges the battery (charge-efficiency limited); deficits
    discharge it down to the cutoff, below which load goes unmet
    (downtime).  A day counts as "full battery" when the battery reaches
    100 % at any hour of that day.
    """
    if days <= 0:
        raise ConfigurationError(f"days must be positive, got {days}")
    start = (system.START_DAY_OF_YEAR if start_day_of_year is None
             else start_day_of_year)
    weather = DayWeather(system.location, params=system.weather,
                         seed=system.seed)
    battery = BatteryBucket(system.battery, initial_soc)

    full_days = 0
    unmet_hours = 0
    unmet_wh = 0.0
    min_soc = battery.soc
    annual_pv_wh = 0.0
    annual_load_wh = 0.0
    monthly_pv_wh = np.zeros(12)
    monthly_unmet = np.zeros(12, dtype=int)

    for day_index, day in enumerate(weather.year(days, start)):
        month = system.location.month_of_day(day.day_of_year)
        pv_w = system.pv.power_w(day.poa_w_m2)
        became_full = False
        for hour in range(24):
            produced = float(pv_w[hour])
            demanded = system.load.hourly_w[hour]
            annual_pv_wh += produced
            annual_load_wh += demanded
            monthly_pv_wh[month] += produced
            if produced >= demanded:
                battery.charge(produced - demanded)
            else:
                deficit = demanded - produced
                delivered = battery.discharge(deficit)
                if delivered < deficit - 1e-9:
                    unmet_hours += 1
                    unmet_wh += deficit - delivered
                    monthly_unmet[month] += 1
            if battery.is_full:
                became_full = True
            min_soc = min(min_soc, battery.soc)
        if became_full:
            full_days += 1

    return OffGridResult(
        location_name=system.location.name,
        pv_peak_w=system.pv.peak_w,
        battery_capacity_wh=system.battery.capacity_wh,
        days=days,
        full_battery_days=full_days,
        unmet_hours=unmet_hours,
        unmet_wh=unmet_wh,
        min_soc=min_soc,
        annual_pv_kwh=annual_pv_wh / 1000.0,
        annual_load_kwh=annual_load_wh / 1000.0,
        monthly_pv_kwh=tuple(monthly_pv_wh / 1000.0),
        monthly_unmet_hours=tuple(int(x) for x in monthly_unmet),
    )


def project_lifetime_scalar(location, pv_peak_w: float,
                            battery_capacity_wh: float,
                            service_years: int = 10,
                            aging: AgingParams | None = None,
                            load=None, seed: int = 2022) -> LifetimeResult:
    """:func:`repro.solar.degradation.project_lifetime` as the original
    year-by-year loop: each year's fade consumes the previous years'
    simulated equivalent full cycles."""
    aging = aging or AgingParams()
    outcomes: list[YearOutcome] = []
    cumulative_efc = 0.0
    for year in range(1, service_years + 1):
        calendar_years = year - 1
        battery_fade = (aging.calendar_fade_per_year * calendar_years
                        + aging.cycle_fade_per_efc * cumulative_efc)
        battery_now = battery_capacity_wh * max(0.0, 1.0 - battery_fade)
        pv_now = pv_peak_w * (1.0 - aging.pv_fade_per_year) ** calendar_years
        if battery_now <= 0:
            raise ConfigurationError(f"battery fully faded in year {year}")

        system = OffGridSystem(
            location=location,
            pv=PvArray(peak_w=pv_now),
            battery=Battery(capacity_wh=battery_now),
            load=load,
            seed=seed + year,
        )
        result = simulate_year(system)
        efc = _equivalent_full_cycles(result, battery_now)
        cumulative_efc += efc
        outcomes.append(YearOutcome(year=year, battery_capacity_wh=battery_now,
                                    pv_peak_w=pv_now, result=result,
                                    equivalent_full_cycles=efc))
    return LifetimeResult(years=tuple(outcomes))
