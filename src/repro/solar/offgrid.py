"""Off-grid PV system simulation — the PVGIS statistics used in Table IV.

The hourly load profile follows the paper's Section V-B description: the
repeater sleeps continuously for the 5 night hours and runs its sleep/full-load
mix during the 19 service hours, totalling the 124.1 Wh/day average.

The simulation runs an hourly energy balance over a synthetic year and
reports the PVGIS-style statistics: percentage of days on which the battery
became full, unmet-load (downtime) hours, and monthly yield/SoC summaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import constants
from repro.energy.duty import EnergyParams, lp_node_average_power_w
from repro.errors import ConfigurationError
from repro.solar.battery import Battery
from repro.solar.climates import Location
from repro.solar.irradiance import WeatherParams
from repro.solar.pv import PvArray

__all__ = ["LoadProfile", "repeater_load_profile", "annual_load_wh",
           "OffGridSystem", "OffGridResult"]


@dataclass(frozen=True)
class LoadProfile:
    """Hourly load of the supplied device over a day [W], 24 values."""

    hourly_w: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.hourly_w) != 24:
            raise ConfigurationError(f"need 24 hourly loads, got {len(self.hourly_w)}")
        if any(w < 0 for w in self.hourly_w):
            raise ConfigurationError("loads must be >= 0 W")

    @property
    def daily_wh(self) -> float:
        return float(sum(self.hourly_w))


def repeater_load_profile(params: EnergyParams | None = None,
                          night_hours: float = constants.NIGHT_QUIET_HOURS) -> LoadProfile:
    """The paper's repeater consumption profile for PVGIS.

    Night (no passenger traffic): pure sleep power.  Service hours: the
    sleep/full-load mix whose 24 h average is the quoted 5.17 W; the service-
    hour level is chosen so the daily total matches that average exactly.
    """
    params = params or EnergyParams()
    daily_avg_w = lp_node_average_power_w(params, sleeping=True)
    daily_wh = daily_avg_w * 24.0
    n_night = int(round(night_hours))
    if not 0 <= n_night < 24:
        raise ConfigurationError(f"night hours must be within [0, 24), got {night_hours}")
    night_wh = params.lp_sleep_w * n_night
    service_w = (daily_wh - night_wh) / (24 - n_night)
    hours = [params.lp_sleep_w] * n_night + [service_w] * (24 - n_night)
    return LoadProfile(hourly_w=tuple(hours))


def annual_load_wh(load: LoadProfile, days: int = 365) -> float:
    """Yearly load energy, accumulated hour by hour.

    The fold order is the hour-by-hour running sum of a step-loop year
    simulation, so callers that need the load total without a simulation
    (e.g. the degradation fade precomputation) get the bit-identical value.
    """
    total = 0.0
    for _ in range(days):
        for demanded in load.hourly_w:
            total += demanded
    return total


@dataclass(frozen=True)
class OffGridResult:
    """PVGIS-style yearly statistics of an off-grid system."""

    location_name: str
    pv_peak_w: float
    battery_capacity_wh: float
    days: int
    full_battery_days: int
    unmet_hours: int
    unmet_wh: float
    min_soc: float
    annual_pv_kwh: float
    annual_load_kwh: float
    monthly_pv_kwh: tuple[float, ...]
    monthly_unmet_hours: tuple[int, ...]

    @property
    def full_battery_days_pct(self) -> float:
        """Percentage of days the battery became full (Table IV row)."""
        return 100.0 * self.full_battery_days / self.days

    @property
    def zero_downtime(self) -> bool:
        """The paper's dimensioning requirement."""
        return self.unmet_hours == 0


@dataclass
class OffGridSystem:
    """A PV + battery system powering one repeater node at a location.

    :func:`repro.solar.batch.simulate_systems` runs the hourly energy
    balance of any number of systems at once.
    """

    location: Location
    pv: PvArray = field(default_factory=PvArray)
    battery: Battery = field(default_factory=Battery)
    load: LoadProfile | None = None
    #: ``None`` uses the location's calibrated weather character.
    weather: WeatherParams | None = None
    seed: int = 2022

    def __post_init__(self) -> None:
        if self.load is None:
            self.load = repeater_load_profile()

    #: Default simulation phase: start Oct 1 so one *continuous* winter sits
    #: mid-simulation (a Jan-Dec year would split the winter across both ends
    #: and start it with a freshly full battery, hiding autonomy failures).
    START_DAY_OF_YEAR = 274
