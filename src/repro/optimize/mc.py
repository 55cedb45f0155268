"""Vectorized Monte-Carlo shadowing engine.

A Monte-Carlo robustness study asks, trial by trial, whether a shadowing
trace pushes some track position of a profile below the SNR threshold.  This
module batches that question across **every (candidate, trial, position)**
at once:

* per-trial generators are seeded as ``default_rng([seed, t])`` — the
  *common-random-number* (CRN) contract: trial ``t``'s standard-normal stream
  depends only on ``(seed, t)``, never on the candidate, so every candidate
  consumes a prefix of the same trial streams and Monte-Carlo noise cancels
  out of cross-candidate comparisons (the empirical outage-vs-ISD curve
  tracks the monotone deterministic profiles, which makes bisection over its
  feasibility boundary sound — see
  :func:`repro.optimize.robustness.robust_max_isd`, pinned equal to the
  full-scan oracle ``tests/oracles/isd.py`` across seed sweeps in the tests);
* one standard-normal matrix ``[trial, position]`` is drawn per
  ``(seed, trials)`` stream, at the longest grid of the call, and shared by
  all candidates;
* a candidate is a (profile, shadowing) pair: :func:`min_snr_matrix`
  evaluates every shadowing draw of one stream — a whole robustness grid
  under a shared seed — in one kernel call, and :func:`outage_matrix` is
  its one-shadowing case;
* the Gudmundson AR(1) recurrence advances a ``[candidate, trial]`` shadow
  state with position as the only sequential loop, using the per-step
  ``rho``/``innovation`` vectors precomputed (and memoized) by
  :meth:`repro.propagation.fading.LogNormalShadowing.coefficients` and each
  candidate's own sigma as the first-position scale;
* ragged per-candidate position grids are handled by padding: deterministic
  SNR is padded with ``+inf`` (never the minimum) and the AR(1) coefficients
  with zeros, so no validity mask is needed in the reduction.

The scan itself is the :func:`repro.kernels.ar1_min_scan` kernel.  The
per-trial shadowing walk (one trace per (candidate, trial)) and a
``[trial]``-stacked trace sampler are test oracles
(``tests/oracles/mc.py``): the batched engine with the step-loop kernel
substituted is trial-for-trial bit-identical to the walk (same generator
seeding, same draw order, elementwise-identical arithmetic), and the fused
kernel matches it within 1e-9 while preserving the CRN
candidate-independence bitwise — asserted in ``tests/test_mc_engine.py``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro import constants
from repro.errors import ConfigurationError
from repro.kernels import ar1_min_scan
from repro.propagation.fading import (
    LogNormalShadowing,
    _ar1_coefficients,
    _spacing_key,
)

__all__ = ["OutageMatrix", "min_snr_matrix", "outage_matrix",
           "readonly_array", "trial_generators", "wilson_interval"]


def readonly_array(values) -> np.ndarray:
    """Float ndarray snapshot, frozen against writes.

    Copies when the input is a writeable array so a caller-owned buffer is
    never mutated; already-frozen arrays pass through without a copy.  Shared
    by the result dataclasses that hold ndarray fields (:class:`OutageMatrix`,
    :class:`repro.simulation.batch.DayBatchResult`).

    Args:
        values: Anything :func:`numpy.asarray` accepts.

    Returns:
        A float64 ndarray with ``writeable=False``.
    """
    arr = np.asarray(values, dtype=float)
    if arr.flags.writeable:
        arr = arr.copy()
        arr.flags.writeable = False
    return arr


def trial_generators(seed: int, trials: int) -> list[np.random.Generator]:
    """Independent per-trial generators — the common-random-number contract.

    Trial ``t``'s stream is a pure function of ``(seed, t)``; candidates and
    repeated calls all see the same streams.

    Args:
        seed: Root seed of the trial family.
        trials: Number of generators to derive.

    Returns:
        ``trials`` generators, one per trial, each seeded
        ``default_rng([seed, t])`` — the convention shared with
        :func:`repro.traffic.timetable.day_timetables` and the study layer's
        :meth:`repro.study.spec.StudySpec.case_seed`.
    """
    return [np.random.default_rng([seed, t]) for t in range(trials)]


def wilson_interval(successes, trials: int, z: float = 1.959963984540054):
    """Wilson score interval for a binomial proportion (default 95%).

    Vectorizes over ``successes``.  Unlike the normal-approximation interval
    it stays inside [0, 1] and behaves at 0 or ``trials`` successes, which
    outage counts routinely hit.

    Args:
        successes: Success counts (scalar or array).
        trials: Number of Bernoulli trials (> 0).
        z: Normal quantile (default: the two-sided 95% value).

    Returns:
        ``(low, high)`` bound arrays, clipped to [0, 1] and guaranteed to
        bracket the point estimate.

    Raises:
        ConfigurationError: When ``trials`` is not positive.
    """
    if trials <= 0:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    successes = np.asarray(successes, dtype=float)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = (z / denom) * np.sqrt(p * (1.0 - p) / trials
                                 + z * z / (4.0 * trials * trials))
    # The point estimate lies inside the interval and the bounds inside
    # [0, 1] by construction; enforce both against floating-point rounding
    # at the p = 0 / p = 1 boundaries.
    return (np.clip(np.minimum(center - half, p), 0.0, 1.0),
            np.clip(np.maximum(center + half, p), 0.0, 1.0))


@dataclass(frozen=True, eq=False)
class OutageMatrix:
    """Stacked Monte-Carlo outcome: one row per candidate, one column per trial.

    ``min_snr_db[c, t]`` is the worst shadowed SNR along candidate ``c``'s
    track in trial ``t``; everything else derives from it.  The matrix is
    stored read-only; equality and hashing are defined explicitly (the
    generated ones choke on ndarray fields).
    """

    min_snr_db: np.ndarray
    threshold_db: float
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "min_snr_db", readonly_array(self.min_snr_db))

    def __eq__(self, other) -> bool:
        if not isinstance(other, OutageMatrix):
            return NotImplemented
        return (self.threshold_db == other.threshold_db
                and self.seed == other.seed
                and np.array_equal(self.min_snr_db, other.min_snr_db))

    def __hash__(self) -> int:
        return hash((self.threshold_db, self.seed, self.min_snr_db.shape))

    @property
    def trials(self) -> int:
        return self.min_snr_db.shape[1]

    @property
    def outage_counts(self) -> np.ndarray:
        """Trials below the threshold, per candidate."""
        return np.count_nonzero(self.min_snr_db < self.threshold_db, axis=1)

    @property
    def outage_probability(self) -> np.ndarray:
        return self.outage_counts / self.trials

    def ci95(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-candidate Wilson 95% interval on the outage probability."""
        return wilson_interval(self.outage_counts, self.trials)

    def quantile(self, q) -> np.ndarray:
        """Per-candidate quantile(s) of the min-SNR samples."""
        return np.quantile(self.min_snr_db, q, axis=1)


#: Standard-normal matrix memo keyed by (seed, trials).  Each entry holds the
#: longest matrix drawn so far for that key; shorter position counts are
#: served as prefix views (bit-identical — trial t's row IS the prefix of
#: ``default_rng([seed, t])``'s stream), and a longer one redraws the key.
#: Grid studies re-evaluate the same (seed, trials) across many shadowing
#: parameters and ISDs; this avoids redrawing identical normals per cell.
#: Matrices above the byte cap are returned without being stored, so huge
#: trial counts never pin gigabytes in module state.  Service threads share
#: the memo, hence the lock.
_Z_CACHE: OrderedDict[tuple, np.ndarray] = OrderedDict()
_Z_CACHE_MAX = 4
_Z_CACHE_MAX_BYTES = 64 * 1024 * 1024
_Z_LOCK = threading.Lock()


def _standard_normal_matrix(seed: int, trials: int, p_max: int) -> np.ndarray:
    """Read-only ``[trials, p_max]`` matrix of per-trial standard normals."""
    key = (seed, trials)
    with _Z_LOCK:
        hit = _Z_CACHE.get(key)
        if hit is not None and hit.shape[1] >= p_max:
            _Z_CACHE.move_to_end(key)
            return hit[:, :p_max]
        z = np.empty((trials, p_max))
        for t, rng in enumerate(trial_generators(seed, trials)):
            z[t] = rng.standard_normal(p_max)
        z.flags.writeable = False
        if z.nbytes <= _Z_CACHE_MAX_BYTES:
            _Z_CACHE[key] = z
            _Z_CACHE.move_to_end(key)  # replacing a key keeps its old slot
            if len(_Z_CACHE) > _Z_CACHE_MAX:
                _Z_CACHE.popitem(last=False)
        return z


def min_snr_matrix(profiles, shadowings, trials: int,
                   seed: int) -> np.ndarray:
    """Worst shadowed SNR per (candidate, trial), every candidate on the
    same ``(seed, trials)`` trial streams — one draw, one kernel call.

    Candidate ``c`` is ``profiles[c]`` under ``shadowings[c]``, so one call
    covers every shadowing draw a study grid evaluates on one stream.  The
    standard-normal matrix is drawn once, at the longest grid of the call;
    candidate ``c`` consumes the first ``sizes[c]`` columns of each trial's
    stream — exactly what a per-trial ``sample`` walk draws — so its row
    does not depend on the candidates stacked beside it (the CRN contract,
    bitwise).
    The :func:`repro.kernels.ar1_min_scan` kernel then advances a
    ``[candidate, trial]`` shadow state with position as the only
    sequential loop.  Folding the candidate axis into the state (with
    padding) and reducing to a running minimum, rather than building one
    ``[trial, position]`` trace per candidate, is what keeps one scan for
    the whole batch.

    Args:
        profiles: :class:`repro.radio.link.SnrProfile` per candidate; grids
            may be ragged.
        shadowings: :class:`LogNormalShadowing` per candidate.
        trials: Trials per candidate (> 0).
        seed: Root seed of the trial streams.

    Returns:
        A read-only ``[candidate, trial]`` float array.

    Raises:
        ConfigurationError: On no profiles, an empty grid, ``trials <= 0``
            or a shadowing count other than the profile count.
    """
    profiles, shadowings = list(profiles), list(shadowings)
    if not profiles:
        raise ConfigurationError("at least one profile is required")
    if any(np.asarray(p.positions_m).size == 0 for p in profiles):
        raise ConfigurationError("profiles must have at least one position")
    if trials <= 0:
        raise ConfigurationError(f"trials must be positive, got {trials}")
    if len(shadowings) != len(profiles):
        raise ConfigurationError(
            f"{len(profiles)} profiles need as many shadowings, "
            f"got {len(shadowings)}")
    sizes = [np.asarray(p.positions_m).size for p in profiles]
    mins = np.empty((len(profiles), trials))
    # No shadowing: every trial reduces to the deterministic minimum
    # (bit-identical to the scalar path, which adds an all-zeros trace).
    lanes = []
    for c, (profile, shadowing) in enumerate(zip(profiles, shadowings)):
        if shadowing.sigma_db == 0.0:
            mins[c] = np.min(profile.snr_db)
        else:
            lanes.append(c)
    if lanes:
        p_max = max(sizes[c] for c in lanes)
        # Deterministic SNR padded with +inf (padded positions never win
        # the min) and AR(1) coefficients padded with zeros (past a grid's
        # end the shadow state collapses to 0), so the ragged grids need
        # no validity mask.
        snr = np.full((len(lanes), p_max), np.inf)
        rho = np.zeros((len(lanes), max(p_max - 1, 1)))
        innovation = np.zeros_like(rho)
        # Each distinct profile's grid is validated and keyed once (what
        # LogNormalShadowing.coefficients does per call); its lanes differ
        # only in (sigma, decorrelation).
        keys: dict[int, bytes] = {}
        for j, c in enumerate(lanes):
            size = sizes[c]
            snr[j, :size] = profiles[c].snr_db
            if size > 1:
                key = keys.get(id(profiles[c]))
                if key is None:
                    key = keys[id(profiles[c])] = _spacing_key(
                        profiles[c].positions_m)
                rho[j, :size - 1], innovation[j, :size - 1] = _ar1_coefficients(
                    shadowings[c].sigma_db, shadowings[c].decorrelation_m, key)
        # Memoized per (seed, trials): repeated evaluations up to the
        # longest grid drawn so far (bisection probes, later attempts of a
        # study) read a prefix view instead of redrawing the normals.
        z = _standard_normal_matrix(seed, trials, p_max)
        mins[lanes] = ar1_min_scan(
            snr, rho, innovation, z,
            np.array([shadowings[c].sigma_db for c in lanes]),
            np.array([sizes[c] for c in lanes]))
    mins.flags.writeable = False
    return mins


def outage_matrix(profiles,
                  shadowing: LogNormalShadowing | None = None,
                  threshold_db: float = constants.PEAK_SNR_CRITERION_DB,
                  trials: int = 200,
                  seed: int = 2022) -> OutageMatrix:
    """Monte-Carlo shadowing outage of many profiles, common random numbers.

    Parameters
    ----------
    profiles:
        :class:`repro.radio.link.SnrProfile` sequence (e.g. from
        :func:`repro.radio.batch.evaluate_scenarios`); position grids may be
        ragged across profiles.
    shadowing:
        The :class:`LogNormalShadowing` overlay (default parameters if None).

    Each profile sees the same per-trial shadowing streams (CRN), so
    cross-profile comparisons — outage-vs-ISD curves, bisection over the
    feasibility boundary — are free of independent sampling noise.  The CRN
    seeding also makes a candidate's column independent of which *other*
    candidates share the call: evaluating profiles one by one or stacked
    yields identical per-candidate results (the property the study layer's
    sharding relies on).

    Returns
    -------
    The :class:`OutageMatrix` holding the ``[candidate, trial]`` worst-case
    shadowed SNRs, with outage probabilities, Wilson intervals and quantiles
    derived lazily.
    """
    profiles = list(profiles)
    shadowing = shadowing or LogNormalShadowing()
    mins = min_snr_matrix(profiles, [shadowing] * len(profiles), trials, seed)
    return OutageMatrix(min_snr_db=mins, threshold_db=threshold_db, seed=seed)
