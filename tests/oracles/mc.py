"""Monte-Carlo oracles: the per-trial generators, the shadowing trace
samplers, the per-trial shadowing walk behind ``repro.optimize.mc`` and the
per-draw loop behind the ``mc`` study adapter."""

from __future__ import annotations

import numpy as np

from oracles.radio import scenario_profile
from repro.kernels import ar1_scan
from repro.optimize.mc import outage_matrix, wilson_interval
from repro.propagation.fading import LogNormalShadowing, _validated_positions
from repro.study import engines as _engines

__all__ = ["trial_generators", "sample", "sample_batch",
           "outage_matrix_scalar", "per_draw_mc"]


def trial_generators(seed: int, trials: int) -> list[np.random.Generator]:
    """Independent per-trial generators — the common-random-number contract.

    Trial ``t``'s stream is a pure function of ``(seed, t)``; candidates and
    repeated calls all see the same streams.  This is the definition the
    engine's one-pass seeding (``repro.optimize.mc._trial_states``) is
    pinned bit-identical to.

    Returns:
        ``trials`` generators, one per trial, each seeded
        ``default_rng([seed, t])`` — the convention shared with
        :func:`repro.traffic.timetable.day_timetables` and the study layer's
        :meth:`repro.study.spec.StudySpec.case_seed`.
    """
    return [np.random.default_rng([seed, t]) for t in range(trials)]


def sample(model: LogNormalShadowing, positions_m,
           rng: np.random.Generator) -> np.ndarray:
    """Draw one correlated shadowing trace (dB) over ordered positions.

    Uses the exact AR(1) discretization of the exponential autocorrelation
    (``model.coefficients``), so irregular position grids are handled
    correctly.  Consumes exactly one standard normal per position from
    ``rng`` (none when ``sigma_db == 0``, which short-circuits to zeros).
    """
    pos = _validated_positions(positions_m)
    if model.sigma_db == 0.0:
        return np.zeros_like(pos)
    rho, innovation = model.coefficients(pos)
    out = np.empty_like(pos)
    out[0] = model.sigma_db * rng.standard_normal()
    for i in range(1, pos.size):
        out[i] = rho[i - 1] * out[i - 1] + innovation[i - 1] * rng.standard_normal()
    return out


def sample_batch(model: LogNormalShadowing, positions_m, rngs) -> np.ndarray:
    """Draw one trace per generator, stacked as ``[trial, position]``.

    The recurrence runs through the :func:`repro.kernels.ar1_scan` kernel
    with a ``[trial]`` leading axis — position is the only sequential
    dimension.  Row ``t`` matches ``sample(model, positions_m, rngs[t])``:
    each generator is consumed in the same order (one standard normal per
    position), to ``<= 1e-9`` on the fused kernel and bitwise on the
    step-loop one (:mod:`oracles.kernels` substitutes this module's
    ``ar1_scan``).
    """
    pos = _validated_positions(positions_m)
    rngs = list(rngs)
    if model.sigma_db == 0.0:
        return np.zeros((len(rngs), pos.size))
    z = np.empty((len(rngs), pos.size))
    for t, rng in enumerate(rngs):
        z[t] = rng.standard_normal(pos.size)
    rho, innovation = model.coefficients(pos)
    return ar1_scan(z, rho, innovation, model.sigma_db)


def outage_matrix_scalar(profiles, shadowing: LogNormalShadowing,
                         trials: int, seed: int) -> np.ndarray:
    """One :func:`sample` walk per (candidate, trial).

    Returns the read-only ``[candidate, trial]`` worst shadowed SNR, the
    ``min_snr_db`` of :func:`repro.optimize.mc.outage_matrix` on the same
    trial streams.
    """
    mins = np.empty((len(profiles), trials))
    for c, profile in enumerate(profiles):
        for t, rng in enumerate(trial_generators(seed, trials)):
            trace = sample(shadowing, profile.positions_m, rng)
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
            scenario = _engines._radio_scenario(case)
            digest = scenario.content_hash
            profile = cache.get_by_hash(digest)
            if profile is None:
                profile = scenario_profile(scenario)
                cache.put_by_hash(digest, profile)
            profiles[key] = profile
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
