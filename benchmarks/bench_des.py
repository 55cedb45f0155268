"""Event-driven cross-check — DES vs. the analytic duty-cycle energy model.

Not a figure of the paper, but a validation experiment for the analytic
energy model: the 24 h discrete-event simulation (the event oracle in
``tests/oracles/des``) of the N = 10 corridor segment must land within 2 % of
the analytic Fig. 4 value, and the corridor simulation within 2 % in every
operating mode.
"""

import pytest

from oracles.des import simulate_days_event
from repro.corridor.layout import CorridorLayout
from repro.energy.scenario import OperatingMode, segment_energy
from repro.simulation.batch import simulate_days


def bench_des_sleep_mode_day(benchmark):
    layout = CorridorLayout.with_uniform_repeaters(2650.0, 10)

    sim_result, events_processed = benchmark(
        lambda: simulate_days_event(layout, mode=OperatingMode.SLEEP))

    analytic = segment_energy(layout, OperatingMode.SLEEP).w_per_km
    assert sim_result.mean_w_per_km() == pytest.approx(analytic, rel=0.02)
    assert events_processed[0] > 1000


def bench_des_all_modes(benchmark):
    layout = CorridorLayout.with_uniform_repeaters(2400.0, 8)

    def run_all_modes():
        return {mode: simulate_days(layout, mode) for mode in OperatingMode}

    results = benchmark.pedantic(run_all_modes, rounds=1, iterations=1)
    for mode, sim_result in results.items():
        analytic = segment_energy(layout, mode).w_per_km
        assert sim_result.avg_w_per_km[0] == pytest.approx(analytic, rel=0.02), mode
