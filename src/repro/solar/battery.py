"""Battery model with the PVGIS off-grid semantics.

PVGIS's off-grid tool takes a battery capacity and a *discharge cutoff limit*:
the controller disconnects the load when the state of charge falls to the
cutoff (40 % in the paper), which protects the battery but means unmet load —
downtime for the repeater.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import constants
from repro.errors import ConfigurationError

__all__ = ["Battery"]


@dataclass(frozen=True)
class Battery:
    """Battery parameters: capacity, discharge cutoff and charge efficiency.

    The usable state-of-charge window is [cutoff, 1].  The state of charge
    itself belongs to a run (:func:`repro.solar.batch.simulate_systems`'
    ``initial_soc``), not to the battery.
    """

    capacity_wh: float = constants.BATTERY_DEFAULT_WH
    discharge_cutoff: float = constants.BATTERY_DISCHARGE_CUTOFF
    charge_efficiency: float = 0.95

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
