"""Step-loop reference kernels (the ``"reference"`` backend).

These are the engines' original sequential loops, moved verbatim so that
every backend implements the same named kernels.  They advance one
time/position step per Python iteration and are the bit-identity anchor:
the scalar escape hatches (``engine="scalar"`` / per-system
``simulate_year`` / ``engine="event"``) are pinned equal to *these* in the
parity matrix, and the fused numpy kernels are pinned to them in
turn (bit-identical where documented, ``<= 1e-9`` otherwise).  They are
also the honest baseline measured by ``benchmarks/bench_backend.py``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ar1_scan", "ar1_min_scan", "soc_scan", "occupancy_scan",
           "KERNELS"]


def ar1_scan(z: np.ndarray, rho: np.ndarray, innovation: np.ndarray,
             first_scale: float) -> np.ndarray:
    """AR(1) linear recurrence over the last axis, one step per iteration.

    Computes ``out[..., 0] = first_scale * z[..., 0]`` and
    ``out[..., i] = rho[i-1] * out[..., i-1] + innovation[i-1] * z[..., i]``
    — exactly the loop that lived in
    :meth:`repro.propagation.fading.LogNormalShadowing.sample_batch` and in
    :meth:`repro.solar.irradiance.SyntheticWeather.daily_clearness`.

    Args:
        z: Standard normals, shape ``(..., p)``; any batch shape (the
            shadowing engine passes ``[trial, position]``, the weather
            synthesizer a 1-D day series).
        rho: Per-step AR coefficients, length ``>= p - 1``.
        innovation: Per-step innovation scales, length ``>= p - 1``.
        first_scale: Scale of the first sample (the stationary sigma, or
            the innovation scale for a zero-initialized series).

    Returns:
        The recurrence output, same shape as ``z``.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    out[..., 0] = first_scale * z[..., 0]
    for i in range(1, z.shape[-1]):
        out[..., i] = rho[i - 1] * out[..., i - 1] + innovation[i - 1] * z[..., i]
    return out


def ar1_min_scan(snr: np.ndarray, rho: np.ndarray, innovation: np.ndarray,
                 z: np.ndarray, first_scale: float | np.ndarray,
                 sizes: np.ndarray) -> np.ndarray:
    """Fused AR(1) shadow recurrence + running SNR minimum, step-loop form.

    The Monte-Carlo engine's inner loop, verbatim: advance a
    ``[candidate, trial]`` shadow state one position at a time and fold the
    shadowed SNR into a running minimum, so ``[cand, trial, pos]`` is never
    materialized.  Padding conventions (``snr`` +inf, coefficients zero past
    a candidate's grid) make ``sizes`` redundant here; fused backends use it
    to skip padded columns.

    Args:
        snr: Deterministic SNR, shape ``(n_cand, p_max)``, +inf padded.
        rho: AR coefficients, shape ``(n_cand, max(p_max - 1, 1))``,
            zero-padded past each candidate's grid end.
        innovation: Innovation scales, same shape/padding as ``rho``.
        z: Shared standard normals, shape ``(trials, p_max)``.
        first_scale: Stationary sigma scaling the first position's draw —
            one float for every candidate, or one per candidate, shape
            ``(n_cand,)`` (candidates of different shadowing draws).
        sizes: Per-candidate true position counts, shape ``(n_cand,)``.

    Returns:
        Per-(candidate, trial) minimum shadowed SNR, shape
        ``(n_cand, trials)``.
    """
    scales = np.broadcast_to(np.asarray(first_scale, dtype=float),
                             (snr.shape[0],))
    shadow = np.multiply.outer(scales, z[:, 0])
    mins = snr[:, :1] + shadow
    for i in range(1, snr.shape[1]):
        shadow = rho[:, i - 1:i] * shadow + innovation[:, i - 1:i] * z[:, i]
        np.minimum(mins, snr[:, i:i + 1] + shadow, out=mins)
    return mins


def soc_scan(produced_w: np.ndarray, demanded_w: np.ndarray,
             months: np.ndarray, capacity_wh: np.ndarray,
             efficiency: np.ndarray, cutoff: np.ndarray,
             initial_soc: float) -> dict:
    """Battery state-of-charge clip-recurrence, nested day/hour step loop.

    The original :func:`repro.solar.batch.simulate_systems` hourly energy
    balance, verbatim: both branches of the scalar if/else merged
    element-wise, every accumulator advanced inside the loop.

    Args:
        produced_w: PV power, shape ``(days, 24, n)``.
        demanded_w: Load power, shape ``(24, n)`` (same every day).
        months: Month index (0..11) per day, shape ``(days,)``.
        capacity_wh: Battery capacity per system, shape ``(n,)``.
        efficiency: Charge efficiency per system, shape ``(n,)``.
        cutoff: Discharge cutoff SoC per system, shape ``(n,)``.
        initial_soc: State of charge before the first hour, in [0, 1].

    Returns:
        Dict of per-system accounting arrays: ``min_soc``, ``full_days``,
        ``unmet_hours``, ``unmet_wh``, ``annual_pv_wh``, ``annual_load_wh``
        (all ``(n,)``) and ``monthly_pv_wh``, ``monthly_unmet_hours``
        (``(n, 12)``).
    """
    days = produced_w.shape[0]
    n = produced_w.shape[-1]
    capacity = capacity_wh
    full_threshold = 1.0 - 1e-9

    soc = np.full(n, float(initial_soc))
    min_soc = soc.copy()
    full_days = np.zeros(n, dtype=int)
    unmet_hours = np.zeros(n, dtype=int)
    unmet_wh = np.zeros(n)
    annual_pv_wh = np.zeros(n)
    annual_load_wh = np.zeros(n)
    monthly_pv_wh = np.zeros((n, 12))
    monthly_unmet = np.zeros((n, 12), dtype=int)

    for day in range(days):
        month = int(months[day])
        became_full = np.zeros(n, dtype=bool)
        day_power = produced_w[day]
        for hour in range(24):
            produced = day_power[hour]
            demanded = demanded_w[hour]
            annual_pv_wh += produced
            annual_load_wh += demanded
            monthly_pv_wh[:, month] += produced

            # Both branches of the scalar if/else, merged element-wise.
            charging = produced >= demanded
            surplus = produced - demanded
            absorbable_in = ((1.0 - soc) * capacity) / efficiency
            taken = np.minimum(surplus, absorbable_in)
            soc_charged = np.minimum(1.0, soc + (taken * efficiency) / capacity)

            deficit = demanded - produced
            usable = np.maximum(0.0, (soc - cutoff) * capacity)
            delivered = np.minimum(deficit, usable)
            soc_discharged = soc - delivered / capacity

            soc = np.where(charging, soc_charged, soc_discharged)

            # On the charge branch delivered == deficit, so the unmet test is
            # automatically false there — no extra masking needed.
            unmet = delivered < deficit - 1e-9
            unmet_hours += unmet
            unmet_wh += np.where(unmet, deficit - delivered, 0.0)
            monthly_unmet[:, month] += unmet

            became_full |= soc >= full_threshold
            np.minimum(min_soc, soc, out=min_soc)
        full_days += became_full

    return {
        "min_soc": min_soc,
        "full_days": full_days,
        "unmet_hours": unmet_hours,
        "unmet_wh": unmet_wh,
        "annual_pv_wh": annual_pv_wh,
        "annual_load_wh": annual_load_wh,
        "monthly_pv_wh": monthly_pv_wh,
        "monthly_unmet_hours": monthly_unmet,
    }


def occupancy_scan(g_a: np.ndarray, g_b: np.ndarray,
                   first_wake_after: np.ndarray, n_groups: np.ndarray,
                   transition_s: float,
                   horizon_s: float) -> tuple[np.ndarray, np.ndarray]:
    """Sequential scan over occupancy groups, one group column per step.

    The sim engine's only loop, called once per
    :func:`repro.simulation.batch.occupancy_stage`: track the open wake
    cycle per lane.  A cycle opens at min(next wake, group start), finishes
    waking ``transition_s`` later, and closes at the first group end
    strictly after the finish (the unit stays awake through group ends that
    land inside the transition — the event engine's "missed sleep" case).

    Args:
        g_a: Occupancy group starts, shape ``(lanes, n_runs)``, +inf padded.
        g_b: Occupancy group ends, same shape/padding.
        first_wake_after: First barrier wake strictly after each query
            instant, shape ``(lanes, n_runs + 1)`` (sentinel column first).
        n_groups: Per-lane group counts, shape ``(lanes,)``.
        transition_s: Sleep-to-awake transition time in seconds.
        horizon_s: Simulation horizon in seconds.

    Returns:
        ``(awake_time, waking_occ)`` per lane, both shape ``(lanes,)``:
        total awake seconds and occupancy seconds spent inside wake
        transitions.
    """
    lanes = g_a.shape[0]
    asleep = np.ones(lanes, dtype=bool)
    alpha = np.zeros(lanes)
    finish = np.zeros(lanes)
    awake_time = np.zeros(lanes)
    waking_occ = np.zeros(lanes)
    for k in range(int(n_groups.max()) if n_groups.size else 0):
        ga, gb = g_a[:, k], g_b[:, k]
        active = ga < np.inf
        starting = active & asleep
        alpha = np.where(starting, np.minimum(first_wake_after[:, k], ga), alpha)
        finish = np.where(starting, alpha + transition_s, finish)
        asleep &= ~starting
        waking_occ += np.where(
            active, np.maximum(0.0, np.minimum(gb, finish) - ga), 0.0)
        sleeps = active & (gb > finish)
        awake_time += np.where(sleeps, gb - alpha, 0.0)
        asleep |= sleeps
    awake_time += np.where(~asleep, horizon_s - alpha, 0.0)
    # Tail: a barrier may fire after the last sleep for a run whose section
    # entry lies beyond the horizon — the unit wakes and idles until the end.
    tail_wake = np.take_along_axis(first_wake_after, n_groups[:, None], axis=1)[:, 0]
    awake_time += np.where(asleep & (tail_wake < horizon_s),
                           horizon_s - tail_wake, 0.0)
    return awake_time, waking_occ


#: Kernel table of the ``"reference"`` backend.
KERNELS = {
    "ar1_scan": ar1_scan,
    "ar1_min_scan": ar1_min_scan,
    "soc_scan": soc_scan,
    "occupancy_scan": occupancy_scan,
}
