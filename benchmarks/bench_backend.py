"""Step-loop vs. fused-numpy kernels — the PR-acceptance speedup gates.

Both engines already run batched; this benchmark isolates the *kernel*
inside them.  The step-loop oracles (``tests/oracles/kernels.py``, swapped
into the engines by ``oracles.kernels.substituted``) advance the original
loops (one Python iteration per position / hour); the fused kernels every
run uses (:mod:`repro.kernels`) are blocked prefix-product AR(1) scans with
shared-scan candidate grouping and a flattened branch-specialized SoC walk
with hoisted accounting.

Gates:

* Monte-Carlo min-scan on a 1 m-resolution grid (~2000-2950 positions per
  candidate, 20 candidates x 500 trials): fused >= 3x, min-SNR parity
  <= 1e-9 with equal outage counts;
* solar year walk over 200 candidates: fused >= 2x; integer counts and
  hour-order PV sums bit-identical, SoC-dependent floats <= 1e-9 (the
  fused walk runs the recurrence in SoC units).

Each kernel is timed as the best of five runs (single-shot timings on a
busy host swing by tens of percent); thresholds are advisory under CI
(noisy shared runners), and the parity assertions always hold.  Emits ``BENCH_backend.json`` when
``BENCH_JSON_DIR`` is set.
"""

import dataclasses
import os
import time

import numpy as np

from oracles import kernels as oracle_kernels
from repro.corridor.layout import CorridorLayout
from repro.optimize.mc import outage_matrix
from repro.propagation.fading import LogNormalShadowing
from repro.radio.batch import evaluate_scenarios
from repro.scenario.spec import Scenario
from repro.solar.batch import WeatherCache, simulate_systems
from repro.solar.battery import Battery
from repro.solar.climates import LOCATIONS
from repro.solar.offgrid import OffGridResult, OffGridSystem
from repro.solar.pv import PvArray

N_REPEATERS = 8
N_CANDIDATES = 20
TRIALS = 500
RESOLUTION_M = 1.0  # ~2001..2951 positions per candidate
SIGMA_DB = 2.0

MC_THRESHOLD = 3.0
SOLAR_THRESHOLD = 2.0

RESULT_FIELDS = tuple(f.name for f in dataclasses.fields(OffGridResult))

REPEATS = 5


def _best_of(fn, repeats=REPEATS):
    """Best wall time over a few runs — damps scheduler / cache noise."""
    best_s = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best_s = min(best_s, time.perf_counter() - t0)
    return best_s, result


def _on_step_loops(fn):
    """``fn`` run with the step-loop kernel oracles swapped in."""
    def run():
        with oracle_kernels.substituted():
            return fn()
    return run


def _mc_profiles():
    """20 candidate ISDs in 50 m steps, evaluated on a 1 m grid."""
    isds = 2000.0 + 50.0 * np.arange(N_CANDIDATES)
    layouts = [CorridorLayout.with_uniform_repeaters(float(isd), N_REPEATERS)
               for isd in isds]
    return evaluate_scenarios(
        [Scenario(layout=lo, resolution_m=RESOLUTION_M) for lo in layouts])


def _solar_systems():
    """200 (location, PV, battery) candidates around the paper's ladder."""
    pv_peaks = (360.0, 450.0, 540.0, 630.0, 720.0)
    battery_whs = tuple(720.0 + 180.0 * k for k in range(10))
    return [
        OffGridSystem(LOCATIONS[key], pv=PvArray(peak_w=pv),
                      battery=Battery(capacity_wh=wh))
        for key in ("madrid", "lyon", "vienna", "berlin")
        for pv in pv_peaks
        for wh in battery_whs
    ]


def bench_backend_mc_min_scan(benchmark, bench_json):
    profiles = _mc_profiles()
    assert max(r.positions_m.size for r in profiles) >= 2000
    shadowing = LogNormalShadowing(sigma_db=SIGMA_DB)

    def run():
        return outage_matrix(profiles, shadowing, trials=TRIALS)

    # Warm both paths once: the shared standard-normal matrix is drawn and
    # cached on first use, and must not count against either kernel.
    _on_step_loops(run)()
    benchmark.pedantic(run, rounds=1, iterations=1)

    reference_s, reference = _best_of(_on_step_loops(run))
    fused_s, fused = _best_of(run)

    # Parity inside the gate run: <= 1e-9 on every min-SNR sample and
    # identical outage decisions.
    np.testing.assert_allclose(fused.min_snr_db, reference.min_snr_db,
                               rtol=0.0, atol=1e-9)
    assert np.array_equal(fused.outage_counts, reference.outage_counts)

    speedup = reference_s / fused_s
    bench_json("backend", {
        "mc": {
            "grid": {"candidates": N_CANDIDATES, "trials": TRIALS,
                     "resolution_m": RESOLUTION_M,
                     "max_positions": int(max(r.positions_m.size
                                              for r in profiles))},
            "reference_s": reference_s,
            "fused_s": fused_s,
            "speedup": speedup,
            "threshold": MC_THRESHOLD,
        },
    })
    if os.environ.get("CI"):
        print(f"fused mc kernel speedup: {speedup:.1f}x (threshold not "
              "enforced under CI)")
    else:
        assert speedup >= MC_THRESHOLD, \
            f"fused mc kernel only {speedup:.1f}x faster"


def bench_backend_solar_year(benchmark, bench_json):
    systems = _solar_systems()
    assert len(systems) == 200
    cache = WeatherCache()

    def run():
        return simulate_systems(systems, weather_cache=cache)

    # Warm the weather cache: synthesis does not depend on the SoC kernel
    # (the cache is content-keyed) and must not count against either one.
    _on_step_loops(run)()
    benchmark.pedantic(run, rounds=1, iterations=1)

    reference_s, reference = _best_of(_on_step_loops(run))
    fused_s, fused = _best_of(run)

    # Parity inside the gate run: integer counts, metadata, and the
    # hour-order PV sums are exact; the SoC-dependent floats come from the
    # SoC-space recurrence and are pinned at 1e-9.
    soc_dependent = {"unmet_wh", "min_soc", "annual_load_kwh"}
    for fused_result, reference_result in zip(fused, reference):
        for name in RESULT_FIELDS:
            got = getattr(fused_result, name)
            want = getattr(reference_result, name)
            if name in soc_dependent:
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9,
                                           err_msg=name)
            else:
                assert got == want, name

    speedup = reference_s / fused_s
    bench_json("backend_solar", {
        "solar": {
            "grid": {"locations": 4, "candidates": len(systems)},
            "reference_s": reference_s,
            "fused_s": fused_s,
            "speedup": speedup,
            "threshold": SOLAR_THRESHOLD,
        },
    })
    if os.environ.get("CI"):
        print(f"fused solar kernel speedup: {speedup:.1f}x (threshold not "
              "enforced under CI)")
    else:
        assert speedup >= SOLAR_THRESHOLD, \
            f"fused solar kernel only {speedup:.1f}x faster"
