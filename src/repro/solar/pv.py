"""PV array model.

The paper mounts up to three standard 180 Wp modules (~0.6 m x 1.4 m)
vertically on a catenary mast — 540 Wp total, 600 Wp for Berlin.  The array
converts plane-of-array irradiance to DC power with a flat performance ratio
covering module efficiency deviations, wiring, and converter losses (PVGIS
uses a comparable "system loss" input).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import constants
from repro.errors import ConfigurationError

__all__ = ["PvArray"]


@dataclass(frozen=True)
class PvArray:
    """A PV array: peak power plus a flat performance ratio."""

    peak_w: float = constants.PV_DEFAULT_PEAK_W
    performance_ratio: float = 0.80

    def __post_init__(self) -> None:
        if not (math.isfinite(self.peak_w) and self.peak_w > 0):
            raise ConfigurationError(
                f"peak power must be finite and positive, got {self.peak_w}")
        if not 0.0 < self.performance_ratio <= 1.0:
            raise ConfigurationError(
                f"performance ratio must be in (0, 1], got {self.performance_ratio}")

    @classmethod
    def from_modules(cls, n_modules: int,
                     module_peak_w: float = constants.PV_MODULE_PEAK_W,
                     performance_ratio: float = 0.80) -> "PvArray":
        """Array built from standard modules (3 x 180 Wp fits one mast)."""
        if n_modules < 1:
            raise ConfigurationError(f"need at least one module, got {n_modules}")
        return cls(peak_w=n_modules * module_peak_w, performance_ratio=performance_ratio)

    def power_w(self, poa_w_m2):
        """DC output power for plane-of-array irradiance [W/m²].

        Linear in irradiance with 1000 W/m² at STC, scaled by the performance
        ratio.  Accepts scalars or arrays.
        """
        poa = np.asarray(poa_w_m2, dtype=float)
        if np.any(poa < 0):
            raise ConfigurationError("irradiance must be >= 0")
        out = self.peak_w * poa / 1000.0 * self.performance_ratio
        return float(out) if np.ndim(poa_w_m2) == 0 else out

    def daily_energy_wh(self, poa_hourly_w_m2) -> float:
        """Energy over a day of hourly POA values [Wh]."""
        return float(np.sum(self.power_w(poa_hourly_w_m2)))
