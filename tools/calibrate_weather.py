#!/usr/bin/env python3
"""Calibration pass for the synthetic-weather parameters (DESIGN.md §3).

The PVGIS substitution has, per location, four calibrated quantities:
``sigma_kt`` / ``rho`` / ``kt_min`` (the AR(1) daily clearness process) and
``winter_reliability_derate``.  They were chosen so that the paper's Table IV
sizing outcome emerges from the zero-downtime requirement at seed 2022:

* Madrid, Lyon: the standard 540 Wp / 720 Wh system has zero downtime,
* Vienna: the standard system fails, 540 Wp / 1440 Wh recovers,
* Berlin: both 540 Wp configs fail, 600 Wp / 1440 Wh recovers,

with the published "days with full battery" ordering.  This script evaluates
the shipped parameters and prints the margin of each constraint, so a change
to the weather model can be re-validated at a glance.

Run:  python tools/calibrate_weather.py     (exits 1 when a constraint is
violated)
"""

import sys

from repro import constants
from repro.reporting.tables import format_table
from repro.solar.batch import simulate_systems
from repro.solar.battery import Battery
from repro.solar.climates import LOCATIONS
from repro.solar.offgrid import OffGridSystem
from repro.solar.pv import PvArray

#: (location, pv W, battery Wh, expect zero downtime?)
CONSTRAINTS = (
    ("madrid", 540.0, 720.0, True),
    ("lyon", 540.0, 720.0, True),
    ("vienna", 540.0, 720.0, False),
    ("vienna", 540.0, 1440.0, True),
    ("berlin", 540.0, 720.0, False),
    ("berlin", 540.0, 1440.0, False),
    ("berlin", 600.0, 1440.0, True),
)


def _simulate(configs):
    """One year per ``(location key, pv W, battery Wh)``, in one batch."""
    return simulate_systems([
        OffGridSystem(LOCATIONS[key], pv=PvArray(peak_w=pv),
                      battery=Battery(capacity_wh=battery))
        for key, pv, battery in configs])


def main() -> int:
    rows = []
    all_ok = True
    results = _simulate([c[:3] for c in CONSTRAINTS])
    for (key, pv, battery, expect_zero), result in zip(CONSTRAINTS, results):
        ok = result.zero_downtime == expect_zero
        all_ok &= ok
        rows.append([
            LOCATIONS[key].name, pv, battery,
            "zero" if expect_zero else "downtime",
            result.unmet_hours,
            result.full_battery_days_pct,
            "OK" if ok else "VIOLATED",
        ])
    print(format_table(
        ["location", "PV [Wp]", "battery [Wh]", "expected", "unmet [h]",
         "full days [%]", "status"],
        rows, title="Table IV calibration constraints (seed 2022)"))

    print("\nfull-battery-days vs paper (at the final configurations):")
    finals = {"madrid": (540.0, 720.0), "lyon": (540.0, 720.0),
              "vienna": (540.0, 1440.0), "berlin": (600.0, 1440.0)}
    results = _simulate([(key, *config) for key, config in finals.items()])
    for key, result in zip(finals, results):
        measured = result.full_battery_days_pct
        paper = constants.PAPER_FULL_BATTERY_DAYS_PCT[key]
        print(f"  {LOCATIONS[key].name:8s}: measured {measured:6.2f} %  "
              f"paper {paper:6.2f} %  (delta {measured - paper:+.2f} pp)")

    print("\nall constraints satisfied" if all_ok else "\nCALIBRATION BROKEN")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
