#!/usr/bin/env python3
"""Event-driven simulation of a corridor day, with irregular traffic.

The analytic model of the paper assumes perfectly regular train headways.
This script runs the discrete-event simulator over both a deterministic and
a stochastic (Poisson-headway) timetable, shows the per-device energy
breakdown, and quantifies the effect of the photoelectric barrier's wake
latency — the non-ideality the paper assumes away as "a few hundred
milliseconds".

Run:  python examples/timetable_simulation.py     (takes ~20 s)
"""

from repro import CorridorLayout, OperatingMode
from repro.energy.scenario import segment_energy
from repro.reporting.tables import format_table
from repro.simulation.corridor_sim import CorridorSimulation
from repro.traffic.timetable import generate_timetable
from repro.traffic.trains import TrafficParams


def main() -> None:
    layout = CorridorLayout.with_uniform_repeaters(isd_m=2650.0, n_repeaters=10)
    analytic = segment_energy(layout, OperatingMode.SLEEP)
    print(f"Segment: ISD {layout.isd_m:.0f} m, {layout.n_repeaters} repeaters; "
          f"analytic sleep-mode average {analytic.w_per_km:.1f} W/km\n")

    # --- deterministic vs stochastic timetables ------------------------------
    rows = []
    det = CorridorSimulation(layout, mode=OperatingMode.SLEEP).run()
    rows.append(["deterministic (8/h)", det.hp_wh, det.service_wh, det.donor_wh,
                 det.avg_w_per_km])
    for seed in (1, 2, 3):
        timetable = generate_timetable(TrafficParams(), stochastic=True,
                                       seed=seed)
        sim = CorridorSimulation(layout, mode=OperatingMode.SLEEP,
                                 timetable=timetable).run()
        rows.append([f"stochastic seed={seed} ({len(timetable)} trains)",
                     sim.hp_wh, sim.service_wh, sim.donor_wh, sim.avg_w_per_km])
    print(format_table(
        ["timetable", "HP [Wh/d]", "service [Wh/d]", "donor [Wh/d]", "W/km"],
        rows, title="24 h event-driven energy, sleep mode"))
    print(f"(analytic reference: {analytic.w_per_km:.1f} W/km)\n")

    # --- wake-latency sensitivity --------------------------------------------
    rows = []
    for transition_s, lead_m in ((0.0, 0.0), (0.3, 50.0), (1.0, 100.0),
                                 (5.0, 300.0), (30.0, 1700.0)):
        sim = CorridorSimulation(layout, mode=OperatingMode.SLEEP,
                                 transition_s=transition_s,
                                 wake_lead_m=lead_m).run()
        rows.append([transition_s, lead_m, sim.avg_w_per_km])
    print(format_table(
        ["transition [s]", "wake lead [m]", "W/km"],
        rows, title="Wake-latency sensitivity"))
    print("\nThe paper's 'few hundred milliseconds' assumption costs well "
          "under 1 % — even 30 s transitions (with a correspondingly long "
          "detection lead) stay within a few percent.")


if __name__ == "__main__":
    main()
