"""Scalar vs. batched off-grid simulation — the PR-acceptance speedup benchmark.

The scalar oracle replicates the seed implementation of the Table IV
workload exactly: one :func:`oracles.solar.simulate_year` call per (PV,
battery) candidate in a Python loop, each re-running the hourly double loop
and its own weather synthesis.  The batched path
(:func:`repro.solar.batch.simulate_systems`) synthesizes one weather tensor
per location and advances every candidate's battery recurrence together.

Asserts (a) bit-identical ``OffGridResult`` outputs on a 4-location ×
25-candidate grid — with the step-loop ``soc_scan`` oracle swapped in, the
bit-exact anchor; the fused kernel's 1e-9 tolerance contract is gated in
``benchmarks/bench_backend.py`` — and (b) a >= 5x wall-time speedup for
the batched engine.
"""

import dataclasses
import os
import time

from oracles import kernels as oracle_kernels
from oracles.solar import simulate_year
from repro.solar.batch import WeatherCache, simulate_systems
from repro.solar.battery import Battery
from repro.solar.climates import LOCATIONS
from repro.solar.offgrid import OffGridResult, OffGridSystem
from repro.solar.pv import PvArray

RESULT_FIELDS = tuple(f.name for f in dataclasses.fields(OffGridResult))

#: 25 candidates per location: 5 PV sizes x 5 battery banks around the
#: paper's ladder.
PV_PEAKS_W = (360.0, 450.0, 540.0, 630.0, 720.0)
BATTERY_WHS = (720.0, 1080.0, 1440.0, 1800.0, 2160.0)


def _grid_systems():
    return [
        OffGridSystem(LOCATIONS[key], pv=PvArray(peak_w=pv),
                      battery=Battery(capacity_wh=wh))
        for key in ("madrid", "lyon", "vienna", "berlin")
        for pv in PV_PEAKS_W
        for wh in BATTERY_WHS
    ]


def bench_solar_batch_speedup(benchmark, bench_json):
    systems = _grid_systems()
    assert len(systems) == 100

    t0 = time.perf_counter()
    scalar = [simulate_year(system) for system in systems]
    scalar_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    batched = benchmark.pedantic(
        lambda: simulate_systems(systems, weather_cache=WeatherCache()),
        rounds=1, iterations=1)
    batched_s = time.perf_counter() - t0

    # Bit-identical outputs on every field (the PR acceptance criterion):
    # the step-loop kernel replays the scalar walk exactly.  The timed
    # (fused) run is pinned exact on integers/PV sums and <= 1e-9 on the
    # SoC-dependent floats — the kernel parity contract.
    with oracle_kernels.substituted():
        reference = simulate_systems(systems, weather_cache=WeatherCache())
    soc_dependent = {"unmet_wh", "min_soc", "annual_load_kwh"}
    for batch_result, fused_result, scalar_result in zip(
            reference, batched, scalar):
        for name in RESULT_FIELDS:
            want = getattr(scalar_result, name)
            assert getattr(batch_result, name) == want, name
            got = getattr(fused_result, name)
            if name in soc_dependent:
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), name
            else:
                assert got == want, name

    # ...at a >= 5x wall-time speedup.  Shared CI runners have noisy
    # neighbours and unstable clocks, so the timing threshold is advisory
    # there (the bit-identity assertions above always hold).
    speedup = scalar_s / batched_s
    bench_json("solar", {
        "grid": {"locations": 4, "candidates": len(PV_PEAKS_W) * len(BATTERY_WHS)},
        "scalar_s": scalar_s,
        "batched_s": batched_s,
        "speedup": speedup,
        "threshold": 5.0,
    })
    if os.environ.get("CI"):
        print(f"batched solar speedup: {speedup:.1f}x (threshold not "
              "enforced under CI)")
    else:
        assert speedup >= 5.0, f"batched solar engine only {speedup:.1f}x faster"


def bench_weather_cache_reuse(benchmark):
    """Warm-cache re-evaluation skips every weather synthesis."""
    systems = _grid_systems()
    cache = WeatherCache(maxsize=16)
    cold = simulate_systems(systems, weather_cache=cache)
    assert cache.misses == 4  # one synthesis per location

    warm = benchmark.pedantic(
        lambda: simulate_systems(systems, weather_cache=cache),
        rounds=1, iterations=1)
    assert cache.misses == 4  # no new synthesis
    for a, b in zip(cold, warm):
        for name in RESULT_FIELDS:
            assert getattr(a, name) == getattr(b, name), name
