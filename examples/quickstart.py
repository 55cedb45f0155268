#!/usr/bin/env python3
"""Quickstart: one corridor segment from layout to energy savings.

Builds the paper's Fig. 3 scenario (two high-power masts 2400 m apart with
eight low-power repeater nodes in between), checks that it still delivers
peak 5G NR throughput everywhere inside the train, and compares its energy
consumption against the conventional 500 m corridor under the three
operating policies of Fig. 4.

Run:  python examples/quickstart.py
"""

from repro import (
    CatenaryGrid,
    CorridorLayout,
    OperatingMode,
    compute_snr_profile,
    conventional_reference_w_per_km,
    segment_energy,
    throughput_profile,
)


def main() -> None:
    # 1. Geometry: 8 repeater nodes, 200 m apart, centered between HP masts.
    layout = CorridorLayout.with_uniform_repeaters(isd_m=2400.0, n_repeaters=8)
    print(f"Layout: ISD {layout.isd_m:.0f} m, {layout.n_repeaters} service nodes "
          f"+ {layout.n_donor_nodes} donor nodes")
    print(f"  repeaters at: {[f'{p:.0f}' for p in layout.repeater_positions_m]} m")

    grid = CatenaryGrid()
    on_grid = all(grid.is_on_grid(p) for p in layout.repeater_positions_m)
    print(f"  installable on the 50 m catenary grid: {on_grid}")

    # 2. Radio: Eq. (1)/(2) SNR profile along the track.
    profile = compute_snr_profile(layout)
    print(f"\nSNR along the track: min {profile.min_snr_db:.2f} dB, "
          f"mean {profile.mean_snr_db:.2f} dB")

    # 3. Capacity: truncated Shannon bound (TR 36.942, alpha=0.6, 5.84 bps/Hz).
    thr = throughput_profile(profile)
    print(f"Throughput: min {thr.min_bps / 1e6:.0f} Mbit/s "
          f"(peak {thr.peak_bps / 1e6:.0f} Mbit/s), "
          f"peak sustained everywhere: {thr.sustains_peak_everywhere}")

    # 4. Energy: the three Fig. 4 operating policies vs. the 500 m baseline.
    reference = conventional_reference_w_per_km()
    print(f"\nConventional corridor reference: {reference:.1f} W/km")
    for mode in OperatingMode:
        energy = segment_energy(layout, mode)
        saving = 100.0 * (1.0 - energy.w_per_km / reference)
        print(f"  {mode.value:11s}: {energy.w_per_km:6.1f} W/km "
              f"(saves {saving:4.1f} %)")

    print("\nBreakdown (sleep mode):")
    sleep = segment_energy(layout, OperatingMode.SLEEP)
    print(f"  HP mast   : {sleep.hp_w:7.1f} W per segment")
    print(f"  service   : {sleep.service_w:7.1f} W per segment")
    print(f"  donors    : {sleep.donor_w:7.1f} W per segment")


if __name__ == "__main__":
    main()
