"""Batched off-grid engine — the Table IV workload as (candidate × location)
tensors.

A per-system scalar walk (a Python ``for day / for hour`` double loop that
re-runs the full synthetic-weather synthesis for every candidate; kept as the
test oracle ``tests/oracles/solar.py``) pays two costs this module removes:

* the whole weather year is one ``(days, 24)`` plane-of-array tensor per
  ``(location, WeatherParams, seed, start day)`` key, memoized in a
  :class:`WeatherCache` (the generic
  :class:`~repro.scenario.cache.ArrayCache` machinery from the scenario
  layer), so a sizing ladder, a candidate grid, or repeated experiment runs
  synthesize each weather year exactly once;
* :func:`simulate_systems` runs the clipped battery state-of-charge
  recurrence with *time* as the only sequential axis, batched over a flat
  ``[system]`` leading axis that callers lay out as candidate × location (or
  service-year) grids.

With the step-loop ``soc_scan`` oracle substituted for the fused kernel,
every :class:`~repro.solar.offgrid.OffGridResult` out of the batched path is
bit-identical to the scalar walk on the same system — the recurrence uses the
exact same operation order, only element-wise over the batch axis.  The
fused kernel keeps the integer counts (full days, unmet hours, monthly unmet
hours) and the hour-order PV sums bitwise; the SoC-dependent floats
(``min_soc``, ``unmet_wh``) and the load total agree to 1e-9 (asserted
field by field in ``tests/test_solar_batch.py`` and
``tests/test_engine_parity.py``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.kernels import soc_scan
from repro.scenario.cache import ArrayCache, content_token
from repro.solar.battery import Battery
from repro.solar.climates import Location, months_of_days
from repro.solar.irradiance import SyntheticWeather, WeatherParams, WeatherYear
from repro.solar.offgrid import OffGridResult, OffGridSystem
from repro.solar.pv import PvArray

__all__ = [
    "WeatherKey",
    "WeatherCache",
    "simulate_systems",
    "simulate_candidates",
]


@dataclass(frozen=True)
class WeatherKey:
    """Everything that determines a synthesized weather year.

    Hashing the full parameter content (same ``content_token`` scheme as
    :class:`~repro.scenario.spec.Scenario`) makes the key stable across
    processes, so the disk layer of :class:`WeatherCache` can be shared
    between runs.
    """

    location: Location
    params: WeatherParams
    seed: int
    days: int
    start_day_of_year: int
    #: The full module geometry — including its latitude, which may be
    #: overridden independently of the location's.
    latitude_deg: float
    tilt_deg: float
    azimuth_deg: float

    @classmethod
    def for_weather(cls, weather: SyntheticWeather, days: int,
                    start_day_of_year: int) -> "WeatherKey":
        """Key of the ``(days, 24)`` tensor ``weather`` would synthesize.

        Args:
            weather: The configured synthesizer (location, parameters, seed).
            days: Simulated days.
            start_day_of_year: First simulated day of year (1-based).

        Returns:
            The frozen key; equal keys guarantee bit-identical tensors.
        """
        return cls(location=weather.location, params=weather.params,
                   seed=weather.seed, days=days,
                   start_day_of_year=start_day_of_year,
                   latitude_deg=weather.geometry.latitude_deg,
                   tilt_deg=weather.geometry.tilt_deg,
                   azimuth_deg=weather.geometry.azimuth_deg)

    @property
    def content_hash(self) -> str:
        """SHA-256 over every field; stable across processes and sessions."""
        return hashlib.sha256(content_token(self).encode()).hexdigest()


_WEATHER_FIELDS = ("day_of_year", "month", "kt", "ghi_w_m2", "poa_w_m2")


class WeatherCache(ArrayCache):
    """LRU + optional disk memo for :class:`WeatherYear` tensors, keyed by
    :class:`WeatherKey` content hash."""

    def _pack(self, value: WeatherYear) -> dict[str, np.ndarray]:
        arrays = {name: getattr(value, name) for name in _WEATHER_FIELDS}
        arrays["start_day_of_year"] = np.array(value.start_day_of_year)
        return arrays

    def _unpack(self, arrays: dict[str, np.ndarray]) -> WeatherYear:
        return WeatherYear(start_day_of_year=int(arrays["start_day_of_year"]),
                           **{name: arrays[name] for name in _WEATHER_FIELDS})

    def get(self, key: WeatherKey) -> WeatherYear | None:
        """Cached weather year for ``key``, or ``None`` on a miss."""
        return self.get_by_hash(key.content_hash)

    def put(self, key: WeatherKey, year: WeatherYear) -> None:
        """Store a synthesized weather year under its key's hash."""
        self.put_by_hash(key.content_hash, year)


#: Process-wide default weather memo: a weather year is ~140 kB, so keeping a
#: few dozen hot years costs single-digit megabytes and makes every sizing /
#: degradation / grid call in a session share syntheses automatically.
_DEFAULT_WEATHER_CACHE = WeatherCache(maxsize=64)


def _weather_year_for(weather: SyntheticWeather, days: int,
                      start_day_of_year: int,
                      cache: WeatherCache | None) -> WeatherYear:
    cache = cache if cache is not None else _DEFAULT_WEATHER_CACHE
    key = WeatherKey.for_weather(weather, days, start_day_of_year)
    year = cache.get(key)
    if year is None:
        year = weather.year_tensor(days, start_day_of_year)
        cache.put(key, year)
    return year


def simulate_systems(systems,
                     days: int = 365,
                     initial_soc: float = 1.0,
                     start_day_of_year: int | None = None,
                     weather_cache: WeatherCache | None = None
                     ) -> list[OffGridResult]:
    """Batched hourly energy balance over every system at once.

    Weather is synthesized once per unique :class:`WeatherKey` (memoized
    through ``weather_cache``); the battery clip-recurrence then runs
    through the :func:`repro.kernels.soc_scan` kernel — an hour-major
    walk, streamed over blocks of days.  Against the per-system scalar
    walk (the test oracle, pinned in ``tests/test_engine_parity.py``) the
    integer counts and the PV sums are bitwise equal, and ``min_soc``,
    ``unmet_wh`` and ``annual_load_kwh`` agree to 1e-9.

    Args:
        systems: Sequence of :class:`~repro.solar.offgrid.OffGridSystem`;
            they may span locations, candidate sizes, seeds and loads.
        days: Simulated days (one shared horizon for the whole batch).
        initial_soc: Battery state of charge at the first hour, in [0, 1].
        start_day_of_year: First day of year; ``None`` uses the Oct-1
            default that puts one continuous winter mid-simulation.
        weather_cache: Optional memo of synthesized weather tensors,
            keyed by content; ``None`` uses the process-wide default.

    Returns:
        One :class:`~repro.solar.offgrid.OffGridResult` per system, in input
        order.

    Raises:
        ConfigurationError: On a non-positive horizon or an SoC outside
            [0, 1].
    """
    systems = list(systems)
    if not systems:
        return []
    if days <= 0:
        raise ConfigurationError(f"days must be positive, got {days}")
    if not 0.0 <= initial_soc <= 1.0:
        raise ConfigurationError(f"SoC must be in [0, 1], got {initial_soc}")
    start = (OffGridSystem.START_DAY_OF_YEAR if start_day_of_year is None
             else start_day_of_year)

    # One weather synthesis per unique key; systems index into the pool.
    # Each system's production fills its lane of one preallocated tensor,
    # so at most one per-system temporary is alive at a time.
    pool: dict[str, WeatherYear] = {}
    produced_w = np.empty((days, 24, len(systems)))
    for i, system in enumerate(systems):
        weather = SyntheticWeather(system.location, params=system.weather,
                                   seed=system.seed)
        key = WeatherKey.for_weather(weather, days, start).content_hash
        if key not in pool:
            pool[key] = _weather_year_for(weather, days, start, weather_cache)
        # Same element-wise conversion as a per-day
        # ``pv.power_w(day.poa_w_m2)`` calls, applied to the whole tensor.
        produced_w[..., i] = system.pv.power_w(pool[key].poa_w_m2)

    demanded_w = np.array([s.load.hourly_w for s in systems]).T   # (24, n)
    months = months_of_days((start - 1 + np.arange(days)) % 365 + 1)

    capacity = np.array([s.battery.capacity_wh for s in systems])
    efficiency = np.array([s.battery.charge_efficiency for s in systems])
    cutoff = np.array([s.battery.discharge_cutoff for s in systems])

    acc = soc_scan(produced_w, demanded_w, months, capacity, efficiency,
                   cutoff, float(initial_soc))

    return [
        OffGridResult(
            location_name=system.location.name,
            pv_peak_w=system.pv.peak_w,
            battery_capacity_wh=system.battery.capacity_wh,
            days=days,
            full_battery_days=int(acc["full_days"][i]),
            unmet_hours=int(acc["unmet_hours"][i]),
            unmet_wh=float(acc["unmet_wh"][i]),
            min_soc=float(acc["min_soc"][i]),
            annual_pv_kwh=float(acc["annual_pv_wh"][i] / 1000.0),
            annual_load_kwh=float(acc["annual_load_wh"][i] / 1000.0),
            monthly_pv_kwh=tuple(acc["monthly_pv_wh"][i] / 1000.0),
            monthly_unmet_hours=tuple(
                int(x) for x in acc["monthly_unmet_hours"][i]),
        )
        for i, system in enumerate(systems)
    ]


def simulate_candidates(location: Location,
                        candidates,
                        load=None,
                        weather: WeatherParams | None = None,
                        seed: int = 2022,
                        performance_ratio: float = 0.80,
                        weather_cache: WeatherCache | None = None
                        ) -> list[OffGridResult]:
    """Evaluate a whole (PV peak, battery Wh) candidate ladder in one pass.

    Args:
        location: Study location shared by every candidate.
        candidates: ``(pv_peak_w, battery_wh)`` tuples.
        load: Optional load-profile override (default: the repeater load).
        weather: Optional weather-character override.
        seed: Weather-year seed shared by every candidate.
        performance_ratio: PV performance ratio.
        weather_cache: Optional memo of synthesized weather tensors.

    Returns:
        One :class:`~repro.solar.offgrid.OffGridResult` per candidate, in
        order — the batched equivalent of simulating each rung alone.
    """
    systems = [
        OffGridSystem(
            location=location,
            pv=PvArray(peak_w=pv_peak_w, performance_ratio=performance_ratio),
            battery=Battery(capacity_wh=battery_wh),
            load=load,
            weather=weather,
            seed=seed,
        )
        for pv_peak_w, battery_wh in candidates
    ]
    return simulate_systems(systems, weather_cache=weather_cache)
