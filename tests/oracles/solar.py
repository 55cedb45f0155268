"""Scalar solar oracles: the per-system hourly year walk and the
year-by-year battery-lifetime loop."""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.solar.battery import Battery
from repro.solar.degradation import (
    AgingParams,
    LifetimeResult,
    YearOutcome,
    _equivalent_full_cycles,
)
from repro.solar.irradiance import SyntheticWeather
from repro.solar.offgrid import OffGridResult, OffGridSystem
from repro.solar.pv import PvArray

__all__ = ["simulate_year", "project_lifetime_scalar"]


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
    weather = SyntheticWeather(system.location, params=system.weather,
                               seed=system.seed)
    system.battery.reset(initial_soc)

    full_days = 0
    unmet_hours = 0
    unmet_wh = 0.0
    min_soc = system.battery.soc
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
                system.battery.charge(produced - demanded)
            else:
                deficit = demanded - produced
                delivered = system.battery.discharge(deficit)
                if delivered < deficit - 1e-9:
                    unmet_hours += 1
                    unmet_wh += deficit - delivered
                    monthly_unmet[month] += 1
            if system.battery.is_full:
                became_full = True
            min_soc = min(min_soc, system.battery.soc)
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
