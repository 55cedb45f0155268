"""Battery model with the PVGIS off-grid semantics.

PVGIS's off-grid tool takes a battery capacity and a *discharge cutoff limit*:
the controller disconnects the load when the state of charge falls to the
cutoff (40 % in the paper), which protects the battery but means unmet load —
downtime for the repeater.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro import constants
from repro.errors import ConfigurationError

__all__ = ["Battery"]


@dataclass
class Battery:
    """A simple energy-bucket battery with charge efficiency and a cutoff.

    State of charge (``soc``) is tracked as a fraction of capacity; the
    usable window is [cutoff, 1].
    """

    capacity_wh: float = constants.BATTERY_DEFAULT_WH
    discharge_cutoff: float = constants.BATTERY_DISCHARGE_CUTOFF
    charge_efficiency: float = 0.95
    soc: float = field(default=1.0)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.capacity_wh) and self.capacity_wh > 0):
            raise ConfigurationError(
                f"capacity must be finite and positive, got {self.capacity_wh}")
        if not 0.0 <= self.discharge_cutoff < 1.0:
            raise ConfigurationError(
                f"discharge cutoff must be in [0, 1), got {self.discharge_cutoff}")
        if not 0.0 < self.charge_efficiency <= 1.0:
            raise ConfigurationError(
                f"charge efficiency must be in (0, 1], got {self.charge_efficiency}")
        if not 0.0 <= self.soc <= 1.0:
            raise ConfigurationError(f"SoC must be in [0, 1], got {self.soc}")

    @property
    def stored_wh(self) -> float:
        """Energy above empty (not above the cutoff)."""
        return self.soc * self.capacity_wh

    @property
    def usable_wh(self) -> float:
        """Energy available before the controller cuts the load off."""
        return max(0.0, (self.soc - self.discharge_cutoff) * self.capacity_wh)

    @property
    def headroom_wh(self) -> float:
        """Energy the battery can still absorb."""
        return (1.0 - self.soc) * self.capacity_wh

    @property
    def is_full(self) -> bool:
        return self.soc >= 1.0 - 1e-9

    def charge(self, energy_wh: float) -> float:
        """Charge with PV surplus; returns the energy actually absorbed
        (measured at the input, before efficiency)."""
        if energy_wh < 0:
            raise ConfigurationError(f"charge energy must be >= 0, got {energy_wh}")
        absorbable_in = self.headroom_wh / self.charge_efficiency
        taken = min(energy_wh, absorbable_in)
        self.soc = min(1.0, self.soc + taken * self.charge_efficiency / self.capacity_wh)
        return taken

    def discharge(self, energy_wh: float) -> float:
        """Supply the load; returns the energy actually delivered (cutoff
        limited)."""
        if energy_wh < 0:
            raise ConfigurationError(f"discharge energy must be >= 0, got {energy_wh}")
        delivered = min(energy_wh, self.usable_wh)
        self.soc -= delivered / self.capacity_wh
        return delivered

    def reset(self, soc: float = 1.0) -> None:
        """Reset the state of charge (start of a simulation)."""
        if not 0.0 <= soc <= 1.0:
            raise ConfigurationError(f"SoC must be in [0, 1], got {soc}")
        self.soc = soc
