"""Step-loop kernel oracles.

These are the engines' original sequential loops, kept verbatim with the
same signatures as the fused kernels of :mod:`repro.kernels`.  They advance
one time/position step per Python iteration and are the bit-identity
anchor: with them substituted for the fused kernels (the
``reference_kernels`` fixture), the batch engines are pinned equal to the
scalar oracles of this package, and the fused kernels are pinned to them in
turn (bit-identical where documented, ``<= 1e-9`` otherwise).  They are
also the honest baseline measured by ``benchmarks/bench_backend.py``.

``occupancy_scan`` has no oracle here: the production kernel is itself a
step loop, and the sim engine's oracle is the event DES (:mod:`oracles.des`).
"""

from __future__ import annotations

import contextlib
import importlib

import numpy as np

__all__ = ["ar1_scan", "ar1_min_scan", "soc_scan", "substituted"]

#: The kernel bindings the bitwise parity pins cover: ``(module, name)``.
#: Weather synthesis (``repro.solar.irradiance``) keeps the fused
#: ``ar1_scan``: its tensors are memoized process-wide by content, so a
#: substituted kernel would leak into later callers.
ENGINE_BINDINGS = (
    ("repro.optimize.mc", "ar1_min_scan"),
    ("repro.solar.batch", "soc_scan"),
    ("repro.propagation.fading", "ar1_scan"),
)


@contextlib.contextmanager
def substituted():
    """Route the engines' kernel calls (:data:`ENGINE_BINDINGS`) to these
    step loops for the duration of the block, then restore the fused
    kernels."""
    saved = []
    try:
        for module_name, name in ENGINE_BINDINGS:
            module = importlib.import_module(module_name)
            saved.append((module, name, getattr(module, name)))
            setattr(module, name, globals()[name])
        yield
    finally:
        for module, name, kernel in reversed(saved):
            setattr(module, name, kernel)


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
