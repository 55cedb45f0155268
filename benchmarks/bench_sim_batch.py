"""Event vs. batched day simulation — the PR-acceptance speedup benchmark.

The event oracle (:func:`oracles.des.simulate_days_event`) walks 200 seeded
Poisson timetable days one at a time through the scalar event queue (heapq, callbacks, per-event energy updates).
The batched engine (:func:`repro.simulation.batch.simulate_days`) evaluates
the same fleet as stacked ``[realization, element, run]`` interval tensors
with one short scan over merged occupancy groups.

Asserts (a) per-element active seconds, awake seconds and energies equal to
1e-9 across every realization (identical timetable objects, bit-identical
event instants) and (b) a >= 10x wall-time speedup for the batched engine.

A second, adapter-level case runs the shipped ``studies/sim_grid.yaml`` cases
through the study ``sim`` adapter (one occupancy pass per distinct geometry
and fleet, one kernel scan) against a per-case :func:`simulate_days` loop over
the same fleets, and asserts identical rows and a >= 1.5x speedup.
"""

import os
import time
from pathlib import Path

import numpy as np

from oracles.des import simulate_days_event
from repro.corridor.layout import CorridorLayout
from repro.energy.duty import EnergyParams
from repro.energy.scenario import OperatingMode, segment_energy
from repro.simulation.batch import simulate_days
from repro.study import load_study
from repro.study.engines import STUDY_ENGINES, run_cases
from repro.traffic.timetable import day_timetables
from repro.traffic.trains import TrafficParams

N_REPEATERS = 8
ISD_M = 2400.0
REALIZATIONS = 200
SEED = 0


def _max_rel_diff(a, b):
    return float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))


def bench_sim_batch_speedup(benchmark, bench_json):
    layout = CorridorLayout.with_uniform_repeaters(ISD_M, N_REPEATERS)
    timetables = day_timetables(realizations=REALIZATIONS, seed=SEED)

    t0 = time.perf_counter()
    event, _ = simulate_days_event(layout, mode=OperatingMode.SLEEP,
                                   timetables=timetables)
    event_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    batched = benchmark.pedantic(
        lambda: simulate_days(layout, mode=OperatingMode.SLEEP,
                              timetables=timetables),
        rounds=1, iterations=1)
    batched_s = time.perf_counter() - t0

    # Trial-for-trial parity (the PR acceptance criterion): both engines see
    # bit-identical event instants; the measures differ only by float
    # summation order, bounded at 1e-9.
    diffs = {name: _max_rel_diff(getattr(batched, name), getattr(event, name))
             for name in ("active_s", "awake_s", "energy_wh")}
    for name, diff in diffs.items():
        assert diff <= 1e-9, f"{name} diverges between engines: {diff:.2e}"
    assert batched.element_names == event.element_names

    # The stochastic fleet brackets the deterministic day: sleep-mode energy
    # varies across Poisson days but stays near the analytic figure.
    assert batched.avg_w_per_km.std() > 0.0

    speedup = event_s / batched_s
    bench_json("sim", {
        "grid": {"realizations": REALIZATIONS, "isd_m": ISD_M,
                 "n_repeaters": N_REPEATERS, "seed": SEED,
                 "elements": len(batched.element_names)},
        "event_s": event_s,
        "batched_s": batched_s,
        "speedup": speedup,
        "max_rel_diff": diffs,
        "threshold": 10.0,
    })
    # Shared CI runners have noisy neighbours and unstable clocks, so the
    # timing threshold is advisory there (the parity assertions always hold).
    if os.environ.get("CI"):
        print(f"batched sim speedup: {speedup:.1f}x (threshold not "
              "enforced under CI)")
    else:
        assert speedup >= 10.0, f"batched sim engine only {speedup:.1f}x faster"


SIM_GRID = Path(__file__).resolve().parents[1] / "studies" / "sim_grid.yaml"


def _per_case_rows(cases, seeds):
    """The sim adapter's rows from one :func:`simulate_days` call per case
    (one fleet per distinct traffic scenario, as the adapter's memo)."""
    adapter = STUDY_ENGINES["sim"]
    nan = float("nan")
    fleets = {}
    rows = []
    for case, seed in zip(cases, seeds):
        case = adapter.resolve(case)
        headway = float(case["headway_s"])
        service_hours = float(case["trains_per_day"]) * headway / 3600.0
        if service_hours > 24.0:
            rows.append({
                "service_hours": service_hours, "feasible": 0,
                "realizations": 0, "mean_w_per_km": nan,
                "std_w_per_km": nan, "ci95_low": nan, "ci95_high": nan,
                "analytic_w_per_km": nan})
            continue
        key = (headway, service_hours, int(case["realizations"]), seed)
        if key not in fleets:
            traffic = TrafficParams(trains_per_hour=3600.0 / headway,
                                    night_quiet_hours=24.0 - service_hours)
            fleets[key] = (traffic, day_timetables(
                traffic, realizations=key[2], seed=seed))
        traffic, timetables = fleets[key]
        params = EnergyParams(traffic=traffic)
        layout = CorridorLayout.with_uniform_repeaters(
            float(case["isd_m"]), int(case["n_repeaters"]))
        mode = OperatingMode(case["policy"])
        sim = simulate_days(layout, mode=mode, params=params,
                            timetables=timetables,
                            transition_s=float(case["transition_s"]),
                            wake_lead_m=float(case["wake_lead_m"]))
        ci_low, ci_high = sim.ci95_w_per_km()
        rows.append({
            "service_hours": service_hours, "feasible": 1,
            "realizations": sim.realizations,
            "mean_w_per_km": sim.mean_w_per_km(),
            "std_w_per_km": sim.std_w_per_km(),
            "ci95_low": ci_low, "ci95_high": ci_high,
            "analytic_w_per_km": segment_energy(layout, mode,
                                                params).w_per_km,
        })
    return rows


def bench_sim_adapter_vs_per_case(benchmark, bench_json):
    import repro.study.engines as engines

    spec = load_study(SIM_GRID)
    cases = spec.cases()
    seeds = [spec.case_seed(i) for i in range(len(cases))]

    t0 = time.perf_counter()
    per_case = _per_case_rows(cases, seeds)
    per_case_s = time.perf_counter() - t0

    engines._TIMETABLE_MEMO.clear()
    t0 = time.perf_counter()
    rows = benchmark.pedantic(lambda: run_cases("sim", cases, seeds),
                              rounds=1, iterations=1)
    adapter_s = time.perf_counter() - t0

    # Identical rows, bit for bit (repr round-trips floats, NaN == NaN).
    def bits(table):
        return [[repr(v) for v in row.items()] for row in table]

    assert bits(rows) == bits(per_case)
    feasible = sum(row["feasible"] for row in rows)
    assert feasible == 18

    speedup = per_case_s / adapter_s
    bench_json("sim_adapter", {
        "study": "sim_grid", "cases": len(cases), "feasible": feasible,
        "per_case_s": per_case_s,
        "adapter_s": adapter_s,
        "speedup": speedup,
        "threshold": 1.5,
    })
    if os.environ.get("CI"):
        print(f"sim adapter speedup: {speedup:.1f}x (threshold not "
              "enforced under CI)")
    else:
        assert speedup >= 1.5, f"sim adapter only {speedup:.1f}x faster"
