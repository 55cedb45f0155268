"""Named sequential-scan kernels, one implementation per backend.

Each kernel is one of the recurrences the batch engines cannot vectorize
away — the only remaining sequential loops in the codebase:

* :func:`ar1_scan` — the AR(1) linear recurrence (shadowing traces,
  daily-clearness series);
* :func:`ar1_min_scan` — AR(1) shadow recurrence fused with the running
  SNR minimum (the Monte-Carlo engine's inner loop);
* :func:`soc_scan` — the battery state-of-charge clip-recurrence with its
  energy accounting (the solar engine's hourly walk);
* :func:`occupancy_scan` — the occupancy-group wake-cycle walk (the sim
  engine's group scan).

:data:`BACKENDS` holds the two kernel tables: ``"numpy"`` (fused
formulations, :mod:`repro.kernels.numpy_fused`) serves every run, and
``"reference"`` (the original step loops, :mod:`repro.kernels.reference`)
is the bit-identity oracle the parity tests and
``benchmarks/bench_backend.py`` reach through the engines' ``backend=``
keyword.  ``backend=None`` means ``"numpy"``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.kernels import numpy_fused as _numpy
from repro.kernels import reference as _reference

__all__ = ["BACKENDS", "KERNEL_NAMES", "ar1_scan", "ar1_min_scan",
           "soc_scan", "occupancy_scan"]

#: The kernel names every backend provides.
KERNEL_NAMES = ("ar1_scan", "ar1_min_scan", "soc_scan", "occupancy_scan")

#: Kernel table per backend name; ``"numpy"`` is the default.
BACKENDS = {"numpy": _numpy.KERNELS, "reference": _reference.KERNELS}


def _kernel(name: str, backend: str | None):
    """The ``name`` kernel of ``backend`` (``None`` means ``"numpy"``)."""
    table = BACKENDS.get(backend or "numpy")
    if table is None:
        raise ConfigurationError(
            f"unknown backend {backend!r}; available: {list(BACKENDS)}")
    return table[name]


def ar1_scan(z: np.ndarray, rho: np.ndarray, innovation: np.ndarray,
             first_scale: float, backend: str | None = None) -> np.ndarray:
    """AR(1) recurrence ``out[i] = rho[i-1]*out[i-1] + innovation[i-1]*z[i]``
    over the last axis, with ``out[0] = first_scale * z[0]``.

    Args:
        z: Driving standard normals, shape ``(..., p)``.
        rho: Per-step AR coefficients, length ``>= p - 1``.
        innovation: Per-step innovation scales, length ``>= p - 1``.
        first_scale: Scale applied to the first sample.
        backend: Key of :data:`BACKENDS`; ``None`` means ``"numpy"``.

    Returns:
        The scanned series, same shape as ``z``.
    """
    return _kernel("ar1_scan", backend)(z, rho, innovation, first_scale)


def ar1_min_scan(snr: np.ndarray, rho: np.ndarray, innovation: np.ndarray,
                 z: np.ndarray, first_scale: float | np.ndarray,
                 sizes: np.ndarray,
                 backend: str | None = None) -> np.ndarray:
    """AR(1) shadow recurrence fused with a running minimum of
    ``snr + shadow`` — the ``[cand, trial, pos]`` tensor is never
    materialized.

    Args:
        snr: Deterministic SNR, shape ``(n_cand, p_max)``, +inf padded
            past each candidate's grid end.
        rho: AR coefficients, shape ``(n_cand, max(p_max - 1, 1))``,
            zero-padded.
        innovation: Innovation scales, same shape/padding as ``rho``.
        z: Shared standard normals, shape ``(trials, p_max)``.
        first_scale: Stationary sigma scaling the first position: a float,
            or one per candidate (shape ``(n_cand,)``), so one call covers
            candidates of several shadowing draws on the same trial
            streams.
        sizes: True per-candidate position counts, shape ``(n_cand,)``.
        backend: Key of :data:`BACKENDS`; ``None`` means ``"numpy"``.

    Returns:
        Minimum shadowed SNR per (candidate, trial), shape
        ``(n_cand, trials)``.
    """
    return _kernel("ar1_min_scan", backend)(
        snr, rho, innovation, z, first_scale, sizes)


def soc_scan(produced_w: np.ndarray, demanded_w: np.ndarray,
             months: np.ndarray, capacity_wh: np.ndarray,
             efficiency: np.ndarray, cutoff: np.ndarray, initial_soc: float,
             backend: str | None = None) -> dict:
    """Battery state-of-charge clip-recurrence over an hourly horizon,
    with the full energy accounting of the solar engine.

    The ``"numpy"`` kernel streams the horizon in blocks of days, so its
    working memory is a few blocks of ``(hours, n)`` buffers however many
    lanes a call batches; its outputs do not depend on the block length.

    Args:
        produced_w: PV power, shape ``(days, 24, n)``.
        demanded_w: Load power, shape ``(24, n)``.
        months: Month index (0..11) per day, shape ``(days,)``.
        capacity_wh: Battery capacity per system, shape ``(n,)``.
        efficiency: Charge efficiency per system, shape ``(n,)``.
        cutoff: Discharge cutoff SoC per system, shape ``(n,)``.
        initial_soc: State of charge before the first hour, in [0, 1].
        backend: Key of :data:`BACKENDS`; ``None`` means ``"numpy"``.

    Returns:
        Dict of accounting arrays — ``min_soc``, ``full_days``,
        ``unmet_hours``, ``unmet_wh``, ``annual_pv_wh``, ``annual_load_wh``
        (``(n,)``), ``monthly_pv_wh``, ``monthly_unmet_hours`` (``(n, 12)``).
    """
    return _kernel("soc_scan", backend)(
        produced_w, demanded_w, months, capacity_wh, efficiency, cutoff,
        initial_soc)


def occupancy_scan(g_a: np.ndarray, g_b: np.ndarray,
                   first_wake_after: np.ndarray, n_groups: np.ndarray,
                   transition_s: float, horizon_s: float,
                   backend: str | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Wake-cycle walk over per-lane occupancy groups (the sim engine's
    sequential scan).

    Args:
        g_a: Group start instants, shape ``(lanes, n_runs)``, +inf padded.
        g_b: Group end instants, same shape/padding.
        first_wake_after: First barrier wake strictly after each query,
            shape ``(lanes, n_runs + 1)``.
        n_groups: Per-lane group counts, shape ``(lanes,)``.
        transition_s: Sleep-to-awake transition seconds.
        horizon_s: Simulation horizon seconds.
        backend: Key of :data:`BACKENDS`; ``None`` means ``"numpy"``.

    Returns:
        ``(awake_time, waking_occ)`` per lane, both ``(lanes,)``.
    """
    return _kernel("occupancy_scan", backend)(
        g_a, g_b, first_wake_after, n_groups, transition_s, horizon_s)
