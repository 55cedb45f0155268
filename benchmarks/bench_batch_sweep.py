"""Scalar vs. batched max-ISD sweep — the PR-acceptance speedup benchmark.

The scalar reference below replicates the seed implementation of
``sweep_max_isd`` exactly: one ``compute_snr_profile`` call per (ISD, N)
candidate in a Python loop, keeping the largest feasible ISD.  The batched
path is the current default (:func:`repro.optimize.isd.sweep_max_isd`, which
routes candidate evaluation through :mod:`repro.radio.batch` and bisects the
monotone feasibility boundary).

Asserts (a) both paths return the exact same ``max_isd_by_n`` and
``min_snr_by_n`` on the paper's default grid (N = 0..10, 1 m resolution) and
(b) the batched path is at least 3x faster in wall time.
"""

import os
import time

from repro import constants
from repro.corridor.layout import CorridorLayout
from repro.optimize.isd import sweep_max_isd
from repro.radio.link import LinkParams, compute_snr_profile

import numpy as np


def _scalar_seed_sweep(n_max: int = 10, resolution_m: float = 1.0,
                       isd_step_m: float = constants.ISD_STEP_M,
                       isd_max_m: float = 4000.0,
                       spacing_m: float = constants.LP_NODE_SPACING_M):
    """The seed (pre-batch-engine) sweep, candidate by candidate."""
    link = LinkParams()
    threshold = constants.PEAK_SNR_CRITERION_DB
    max_isd: dict[int, float] = {}
    min_snr: dict[int, float] = {}
    for n in range(0, n_max + 1):
        min_isd = spacing_m * max(0, n - 1) + 2.0 * isd_step_m
        candidates = np.arange(max(isd_step_m, min_isd),
                               isd_max_m + isd_step_m / 2, isd_step_m)
        best_isd = best_snr = None
        for isd in candidates:
            layout = CorridorLayout.with_uniform_repeaters(float(isd), n, spacing_m)
            snr = compute_snr_profile(layout, link,
                                      resolution_m=resolution_m).min_snr_db
            if snr >= threshold:
                best_isd, best_snr = float(isd), snr
        assert best_isd is not None
        max_isd[n] = best_isd
        min_snr[n] = float(best_snr)
    return max_isd, min_snr


def bench_batch_sweep_speedup(benchmark, bench_json):
    t0 = time.perf_counter()
    scalar_isd, scalar_snr = _scalar_seed_sweep()
    scalar_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    batched = benchmark.pedantic(
        lambda: sweep_max_isd(n_max=10, resolution_m=1.0), rounds=1, iterations=1)
    batched_s = time.perf_counter() - t0

    # Identical numeric output (the PR acceptance criterion)...
    assert batched.max_isd_by_n == scalar_isd
    assert batched.min_snr_by_n == scalar_snr
    # ...at a >= 3x wall-time speedup.  Shared CI runners have noisy
    # neighbours and unstable clocks, so the timing threshold is advisory
    # there (the numeric-equality assertions above always hold).
    speedup = scalar_s / batched_s
    bench_json("sweep", {
        "grid": {"n_max": 10, "resolution_m": 1.0},
        "scalar_s": scalar_s,
        "batched_s": batched_s,
        "speedup": speedup,
        "threshold": 3.0,
    })
    if os.environ.get("CI"):
        print(f"batched sweep speedup: {speedup:.1f}x (threshold not "
              "enforced under CI)")
    else:
        assert speedup >= 3.0, f"batched sweep only {speedup:.1f}x faster"


def bench_batch_bisection_matches_scalar(benchmark):
    """The bisecting sweep against the seed scan on a coarse grid."""
    scalar_isd, scalar_snr = _scalar_seed_sweep(n_max=4, resolution_m=4.0)
    result = benchmark.pedantic(
        lambda: sweep_max_isd(n_max=4, resolution_m=4.0),
        rounds=1, iterations=1)
    assert result.max_isd_by_n == scalar_isd
    assert result.min_snr_by_n == scalar_snr
