#!/usr/bin/env python3
"""Solar autonomy study: dimension off-grid PV for sleeping repeater nodes.

Reproduces the paper's Section IV/V-B analysis: a repeater that sleeps
between trains averages only 5.17 W (124.1 Wh/day), small enough for
catenary-mast-mounted PV modules.  The script sizes the PV + battery system
at the four studied locations, shows the monthly energy balance that drives
the sizing, and then answers a what-if the paper leaves open: how much
headroom does the system have for a second repeater node on the same mast?

Run:  python examples/solar_autonomy.py      (takes ~30 s)
"""

from repro.energy.duty import lp_node_average_power_w
from repro.reporting.tables import format_table
from repro.solar.batch import simulate_systems
from repro.solar.battery import Battery
from repro.solar.climates import LOCATIONS
from repro.solar.offgrid import LoadProfile, OffGridSystem, repeater_load_profile
from repro.solar.pv import PvArray
from repro.solar.sizing import find_minimal_system

MONTHS = "Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split()


def main() -> None:
    load = repeater_load_profile()
    print(f"Repeater load profile: {load.daily_wh:.1f} Wh/day "
          f"(average {lp_node_average_power_w():.2f} W)\n")

    # --- Table IV: sizing per location ---------------------------------------
    rows = []
    sizings = {}
    for key in ("madrid", "lyon", "vienna", "berlin"):
        sizing = find_minimal_system(LOCATIONS[key])
        sizings[key] = sizing
        rows.append([
            sizing.location_name,
            sizing.pv_peak_w,
            sizing.battery_capacity_wh,
            sizing.result.full_battery_days_pct,
            "yes" if sizing.needed_upsizing else "no",
        ])
    print(format_table(
        ["location", "PV [Wp]", "battery [Wh]", "full days [%]", "upsized"],
        rows, title="Zero-downtime off-grid sizing (Table IV)"))

    # --- monthly balance at the toughest location ----------------------------
    berlin = sizings["berlin"]
    print(f"\nMonthly PV yield in {berlin.location_name} "
          f"({berlin.pv_peak_w:.0f} Wp vertical, south-facing):")
    monthly_load = [load.daily_wh * d / 1000.0
                    for d in (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)]
    for m in range(12):
        pv = berlin.result.monthly_pv_kwh[m]
        bar = "#" * int(round(4 * pv / max(berlin.result.monthly_pv_kwh)))
        flag = "  <-- below load!" if pv < monthly_load[m] else ""
        print(f"  {MONTHS[m]}: {pv:6.2f} kWh vs load {monthly_load[m]:.2f} kWh "
              f"{bar}{flag}")
    print("  (winter deficits are bridged by the doubled battery)")

    # --- what-if: two repeater nodes on one mast ------------------------------
    double_load = LoadProfile(hourly_w=tuple(2 * w for w in load.hourly_w))
    print("\nWhat-if: powering TWO repeater nodes from one mast's PV system:")
    keys = ("madrid", "berlin")
    systems = [OffGridSystem(
        LOCATIONS[key],
        pv=PvArray(peak_w=sizings[key].pv_peak_w),
        battery=Battery(capacity_wh=sizings[key].battery_capacity_wh),
        load=double_load) for key in keys]
    for key, result in zip(keys, simulate_systems(systems)):
        verdict = "still zero downtime" if result.zero_downtime \
            else f"{result.unmet_hours} h downtime"
        print(f"  {LOCATIONS[key].name:8s}: {verdict}")


if __name__ == "__main__":
    main()
