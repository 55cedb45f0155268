"""Table IV — off-grid PV dimensioning at the four example regions.

For each location the sizing ladder is walked until zero downtime, expected
to land on the paper's configurations: Madrid/Lyon 540 Wp + 720 Wh, Vienna
540 Wp + 1440 Wh, Berlin 600 Wp + 1440 Wh, and to show the published
"days with full battery" ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import constants
from repro.reporting.tables import format_table
from repro.solar.climates import LOCATIONS
from repro.solar.offgrid import LoadProfile
from repro.solar.sizing import SizingResult, _find_minimal_systems

__all__ = ["Table4Result", "run_table4"]

#: Location order as printed in the paper.
LOCATION_ORDER = ("madrid", "lyon", "vienna", "berlin")


@dataclass(frozen=True)
class Table4Result:
    """Sizing outcome per location."""

    sizings: dict[str, SizingResult]

    def series(self) -> dict[str, list]:
        keys = [k for k in LOCATION_ORDER if k in self.sizings]
        return {
            "location": keys,
            "pv_peak_w": [self.sizings[k].pv_peak_w for k in keys],
            "battery_wh": [self.sizings[k].battery_capacity_wh for k in keys],
            "full_battery_days_pct": [self.sizings[k].result.full_battery_days_pct
                                      for k in keys],
            "paper_full_battery_days_pct": [constants.PAPER_FULL_BATTERY_DAYS_PCT[k]
                                            for k in keys],
            "unmet_hours": [self.sizings[k].result.unmet_hours for k in keys],
            "annual_pv_kwh": [self.sizings[k].result.annual_pv_kwh for k in keys],
        }

    def table(self) -> str:
        rows = []
        for key in LOCATION_ORDER:
            if key not in self.sizings:
                continue
            s = self.sizings[key]
            rows.append([s.location_name, s.pv_peak_w, s.battery_capacity_wh,
                         s.result.full_battery_days_pct,
                         constants.PAPER_FULL_BATTERY_DAYS_PCT[key],
                         s.result.unmet_hours])
        return format_table(
            ["location", "PV [Wp]", "battery [Wh]", "full days [%]",
             "paper [%]", "unmet [h]"],
            rows, title="Table IV: off-grid PV dimensioning (zero-downtime sizing)")

    def full_days_ordering(self) -> list[str]:
        """Locations sorted by decreasing full-battery-day percentage."""
        keys = [k for k in LOCATION_ORDER if k in self.sizings]
        return sorted(keys, key=lambda k: -self.sizings[k].result.full_battery_days_pct)


def run_table4(load: LoadProfile | None = None, seed: int = 2022,
               weather_cache=None) -> Table4Result:
    """Run the sizing search at all four locations.

    Every location's candidate ladder runs in one batched off-grid engine
    call (:func:`repro.solar.sizing.find_minimal_system`'s code, over four
    locations); ``weather_cache`` optionally persists the synthesized
    weather years across runs.
    """
    sizings = _find_minimal_systems([LOCATIONS[key] for key in LOCATION_ORDER],
                                    load=load, seed=seed,
                                    weather_cache=weather_cache)
    return Table4Result(sizings=dict(zip(LOCATION_ORDER, sizings)))
