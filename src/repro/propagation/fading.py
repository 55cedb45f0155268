"""Large-scale fading for Monte-Carlo robustness studies.

The paper's evaluation is deterministic.  As an extension, the library can
overlay spatially correlated log-normal shadowing on the RSRP profiles to ask
how robust an ISD choice is to shadowing — see :mod:`repro.optimize.mc` (the
vectorized Monte-Carlo engine), ``benchmarks/bench_mc_shadowing.py`` and
``repro.optimize.isd``'s ``shadowing_margin_db`` parameter.

The Gudmundson AR(1) recurrence over a position grid is

    s[0] = sigma * z[0]
    s[i] = rho[i-1] * s[i-1] + innovation[i-1] * z[i]

with ``rho = exp(-dx / d_corr)`` and ``innovation = sigma * sqrt(1 - rho^2)``
per grid step and ``z`` i.i.d. standard normals.  ``rho``/``innovation``
depend only on the grid spacings (uniform grids collapse to a constant per
step), so they are precomputed once per spacing fingerprint and shared by the
scalar and batched sampling paths; :meth:`LogNormalShadowing.sample_batch`
runs the recurrence through the :func:`repro.kernels.ar1_scan` kernel with a
``[trial]`` leading axis — trial-for-trial within 1e-9 of
:meth:`LogNormalShadowing.sample`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import ConfigurationError
from repro.kernels import ar1_scan

__all__ = ["LogNormalShadowing"]


@lru_cache(maxsize=256)
def _ar1_coefficients(sigma_db: float, decorrelation_m: float,
                      spacings_bytes: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Memoized per-step (rho, innovation) for one spacing fingerprint.

    Grids with identical spacing sequences (every uniform candidate ladder at
    one resolution, every repeated Monte-Carlo call) share one entry; the
    returned arrays are read-only so sharing is safe.
    """
    spacings = np.frombuffer(spacings_bytes, dtype=np.float64)
    rho = np.exp(-spacings / decorrelation_m)
    innovation = sigma_db * np.sqrt(np.maximum(0.0, 1.0 - rho * rho))
    rho.flags.writeable = False
    innovation.flags.writeable = False
    return rho, innovation


def _validated_positions(positions_m) -> np.ndarray:
    pos = np.asarray(positions_m, dtype=float)
    if pos.ndim != 1 or pos.size == 0:
        raise ConfigurationError("positions must be a non-empty 1-D array")
    if np.any(np.diff(pos) < 0):
        raise ConfigurationError("positions must be sorted ascending")
    return pos


@dataclass(frozen=True)
class LogNormalShadowing:
    """Spatially correlated log-normal shadowing (Gudmundson model).

    Parameters
    ----------
    sigma_db:
        Standard deviation of the shadowing in dB (0 disables it).
    decorrelation_m:
        Distance at which the autocorrelation drops to 1/e.
    """

    sigma_db: float = 4.0
    decorrelation_m: float = 50.0

    def __post_init__(self) -> None:
        if self.sigma_db < 0:
            raise ConfigurationError(f"sigma must be >= 0 dB, got {self.sigma_db}")
        if self.decorrelation_m <= 0:
            raise ConfigurationError(f"decorrelation distance must be positive, got {self.decorrelation_m}")

    def coefficients(self, positions_m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-step AR(1) ``(rho, innovation)`` vectors of a position grid.

        Both have length ``positions.size - 1`` and depend only on the grid
        spacings, so results are memoized per spacing fingerprint (read-only
        arrays shared between callers).
        """
        pos = _validated_positions(positions_m)
        return _ar1_coefficients(self.sigma_db, self.decorrelation_m,
                                 np.diff(pos).tobytes())

    def sample(self, positions_m: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw one correlated shadowing trace (dB) over ordered positions.

        Uses the exact AR(1) discretization of the exponential autocorrelation
        so irregular position grids are handled correctly.  Consumes exactly
        one standard normal per position from ``rng`` (none when
        ``sigma_db == 0``, which short-circuits to zeros).
        """
        pos = _validated_positions(positions_m)
        if self.sigma_db == 0.0:
            return np.zeros_like(pos)
        rho, innovation = self.coefficients(pos)
        out = np.empty_like(pos)
        out[0] = self.sigma_db * rng.standard_normal()
        for i in range(1, pos.size):
            out[i] = rho[i - 1] * out[i - 1] + innovation[i - 1] * rng.standard_normal()
        return out

    def sample_batch(self, positions_m: np.ndarray, rngs) -> np.ndarray:
        """Draw one trace per generator, stacked as ``[trial, position]``.

        The recurrence runs through the :func:`repro.kernels.ar1_scan`
        kernel with a ``[trial]`` leading axis — position is the only
        sequential dimension.  Row ``t`` matches ``sample(positions_m,
        rngs[t])``: each generator is consumed in the same order (one
        standard normal per position), to ``<= 1e-9``.

        Args:
            positions_m: Ordered position grid shared by every trial.
            rngs: Iterable of per-trial generators.
        """
        pos = _validated_positions(positions_m)
        rngs = list(rngs)
        if self.sigma_db == 0.0:
            return np.zeros((len(rngs), pos.size))
        z = np.empty((len(rngs), pos.size))
        for t, rng in enumerate(rngs):
            z[t] = rng.standard_normal(pos.size)
        rho, innovation = self.coefficients(pos)
        return ar1_scan(z, rho, innovation, self.sigma_db)
