"""Battery aging: does the Table IV system still work in year ten?

The paper sizes the PV system for a single year.  Off-grid batteries fade —
both with calendar time and with cycling.  This module estimates equivalent
full cycles from the simulated SoC trajectory and projects the system's
downtime across its service life with a linear capacity-fade model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.solar.battery import Battery
from repro.solar.climates import Location
from repro.solar.offgrid import (
    LoadProfile,
    OffGridResult,
    OffGridSystem,
    annual_load_wh,
    repeater_load_profile,
)
from repro.solar.pv import PvArray

__all__ = ["AgingParams", "LifetimeResult", "project_lifetime"]


@dataclass(frozen=True)
class AgingParams:
    """First-order battery fade model.

    ``calendar_fade_per_year`` and ``cycle_fade_per_efc`` (equivalent full
    cycle) reduce usable capacity linearly; defaults are typical LFP values.
    ``pv_fade_per_year`` covers module degradation.
    """

    calendar_fade_per_year: float = 0.015
    cycle_fade_per_efc: float = 0.0001
    pv_fade_per_year: float = 0.005

    def __post_init__(self) -> None:
        for name in ("calendar_fade_per_year", "cycle_fade_per_efc",
                     "pv_fade_per_year"):
            if not 0.0 <= getattr(self, name) < 0.2:
                raise ConfigurationError(f"{name} out of plausible range")


@dataclass(frozen=True)
class YearOutcome:
    """One service year: effective sizes and the simulated result."""

    year: int
    battery_capacity_wh: float
    pv_peak_w: float
    result: OffGridResult
    equivalent_full_cycles: float


@dataclass(frozen=True)
class LifetimeResult:
    """Projection over the whole service life."""

    years: tuple[YearOutcome, ...]

    @property
    def first_downtime_year(self) -> int | None:
        for outcome in self.years:
            if not outcome.result.zero_downtime:
                return outcome.year
        return None

    @property
    def total_unmet_hours(self) -> int:
        return sum(o.result.unmet_hours for o in self.years)

    def survives(self, service_years: int) -> bool:
        """Zero downtime through the first ``service_years`` years."""
        return all(o.result.zero_downtime for o in self.years[:service_years])


def _equivalent_full_cycles(result: OffGridResult,
                            battery_capacity_wh: float) -> float:
    """EFC estimate: energy cycled through the battery / capacity.

    The battery supplies everything the PV does not cover directly; the load
    side bounds the discharge throughput, so EFC <= yearly load / capacity.
    We use the night-load share as the cycled energy (daytime load is mostly
    PV-direct), a deliberate mid-range estimate.
    """
    cycled_kwh = 0.45 * result.annual_load_kwh
    return cycled_kwh * 1000.0 / battery_capacity_wh


def _fade_schedule(battery_capacity_wh: float, pv_peak_w: float,
                   aging: AgingParams, service_years: int,
                   yearly_load_kwh: float) -> list[tuple[float, float]]:
    """Per-year (battery, PV) capacities from the fade recurrence.

    The cycle-fade term consumes each year's equivalent full cycles, which
    depend only on the yearly load energy (not on the weather draw), so the
    whole schedule can be advanced without running any simulation — it is
    bit-identical to the schedule a year-by-year loop produces.
    """
    schedule: list[tuple[float, float]] = []
    cumulative_efc = 0.0
    for year in range(1, service_years + 1):
        calendar_years = year - 1
        battery_fade = (aging.calendar_fade_per_year * calendar_years
                        + aging.cycle_fade_per_efc * cumulative_efc)
        battery_now = battery_capacity_wh * max(0.0, 1.0 - battery_fade)
        pv_now = pv_peak_w * (1.0 - aging.pv_fade_per_year) ** calendar_years
        if battery_now <= 0:
            raise ConfigurationError(f"battery fully faded in year {year}")
        cycled_kwh = 0.45 * yearly_load_kwh
        cumulative_efc += cycled_kwh * 1000.0 / battery_now
        schedule.append((battery_now, pv_now))
    return schedule


def project_lifetime(location: Location,
                     pv_peak_w: float,
                     battery_capacity_wh: float,
                     service_years: int = 10,
                     aging: AgingParams | None = None,
                     load: LoadProfile | None = None,
                     seed: int = 2022,
                     weather_cache=None) -> LifetimeResult:
    """Simulate each service year with faded capacities.

    Each year runs the full synthetic-weather simulation (different seeds per
    year) against the capacity remaining at the start of that year.

    The fade schedule is precomputed (the equivalent-full-cycle recurrence
    depends only on the load, see :func:`_fade_schedule`), then all service
    years run as one batched pass with the per-year fade factors applied as
    array scalars and the per-year weather tensors memoized.
    """
    if service_years <= 0:
        raise ConfigurationError(f"service years must be positive, got {service_years}")
    if pv_peak_w <= 0 or battery_capacity_wh <= 0:
        raise ConfigurationError("PV and battery sizes must be positive")
    aging = aging or AgingParams()

    from repro.solar.batch import simulate_systems
    yearly_load_kwh = annual_load_wh(load or repeater_load_profile()) / 1000.0
    schedule = _fade_schedule(battery_capacity_wh, pv_peak_w, aging,
                              service_years, yearly_load_kwh)
    systems = [
        OffGridSystem(location=location, pv=PvArray(peak_w=pv_now),
                      battery=Battery(capacity_wh=battery_now),
                      load=load, seed=seed + year)
        for year, (battery_now, pv_now) in enumerate(schedule, start=1)
    ]
    results = simulate_systems(systems, weather_cache=weather_cache)
    return LifetimeResult(years=tuple(
        YearOutcome(year=year, battery_capacity_wh=battery_now,
                    pv_peak_w=pv_now, result=result,
                    equivalent_full_cycles=_equivalent_full_cycles(
                        result, battery_now))
        for year, ((battery_now, pv_now), result) in enumerate(
            zip(schedule, results), start=1)))
