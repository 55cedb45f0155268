"""Monte-Carlo oracles: the per-trial shadowing walk behind
``repro.optimize.mc`` and the per-draw loop behind the ``mc`` study
adapter."""

from __future__ import annotations

import numpy as np

from repro.optimize.mc import outage_matrix, trial_generators, wilson_interval
from repro.propagation.fading import LogNormalShadowing
from repro.study import engines as _engines

__all__ = ["outage_matrix_scalar", "per_draw_mc"]


def outage_matrix_scalar(profiles, shadowing: LogNormalShadowing,
                         trials: int, seed: int) -> np.ndarray:
    """One :meth:`LogNormalShadowing.sample` walk per (candidate, trial).

    Returns the read-only ``[candidate, trial]`` worst shadowed SNR, the
    ``min_snr_db`` of :func:`repro.optimize.mc.outage_matrix` on the same
    trial streams.
    """
    mins = np.empty((len(profiles), trials))
    for c, profile in enumerate(profiles):
        for t, rng in enumerate(trial_generators(seed, trials)):
            trace = shadowing.sample(profile.positions_m, rng)
            mins[c, t] = np.min(profile.snr_db + trace)
    mins.flags.writeable = False
    return mins


def per_draw_mc(cases, seeds, context=None):
    """The ``mc`` adapter as one ``outage_matrix`` call per distinct
    (sigma, decorrelation, trials, seed) draw, over the draw's distinct
    scenarios in first-occurrence order.  Takes resolved cases, like an
    adapter runner.  The baseline leg of
    ``benchmarks/bench_mc_shadowing.py`` and the bit-for-bit oracle of
    ``tests/test_mc_engine.py``."""
    cache = _engines._context_profile_cache(context or {})
    profiles, draws = {}, {}
    for i, (case, seed) in enumerate(zip(cases, seeds)):
        key = tuple(case[name] for name in _engines._RADIO_SCENARIO_PARAMS)
        if key not in profiles:
            profiles[key] = cache.get_or_compute(_engines._radio_scenario(case))
        draw = (float(case["sigma_db"]), float(case["decorrelation_m"]),
                int(case["trials"]), seed)
        draws.setdefault(draw, []).append((i, key))
    rows = [None] * len(cases)
    for (sigma, decorrelation, trials, seed), members in draws.items():
        lane_of = {key: lane for lane, key in
                   enumerate(dict.fromkeys(key for _, key in members))}
        matrix = outage_matrix(
            [profiles[key] for key in lane_of],
            LogNormalShadowing(sigma_db=sigma, decorrelation_m=decorrelation),
            trials=trials, seed=seed)
        lanes = [lane_of[key] for _, key in members]
        thresholds = np.array([float(cases[i]["threshold_db"])
                               for i, _ in members])
        counts = np.count_nonzero(
            matrix.min_snr_db[lanes] < thresholds[:, None], axis=1)
        ci_low, ci_high = wilson_interval(counts, trials)
        median = matrix.quantile(0.5)[lanes]
        for j, (i, _) in enumerate(members):
            rows[i] = {
                "outage_probability": float(counts[j] / trials),
                "outage_ci95_low": float(ci_low[j]),
                "outage_ci95_high": float(ci_high[j]),
                "median_min_snr_db": float(median[j]),
            }
    return rows
