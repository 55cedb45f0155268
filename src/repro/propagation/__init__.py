"""Radio propagation substrate.

Implements the paper's calibrated Friis port-to-port attenuation (Eq. 1) plus
the supporting propagation models the corridor system depends on: generic
path-loss laws, train-wagon penetration loss, the mmWave donor fronthaul link
budget, and log-normal shadowing for Monte-Carlo extensions.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CalibratedFriis",
    "free_space_path_loss_db",
    "friis_constant_db",
    "PathLossModel",
    "FreeSpaceModel",
    "LogDistanceModel",
    "DualSlopeModel",
    "PenetrationLoss",
    "WagonWindowType",
    "WINDOW_PRESETS",
    "effective_calibration_db",
    "FronthaulParams",
    "FronthaulTopology",
    "FronthaulBudget",
    "LogNormalShadowing",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "friis": (
        "CalibratedFriis", "free_space_path_loss_db", "friis_constant_db",
    ),
    "pathloss": (
        "DualSlopeModel", "FreeSpaceModel", "LogDistanceModel",
        "PathLossModel",
    ),
    "penetration": (
        "PenetrationLoss", "WINDOW_PRESETS", "WagonWindowType",
        "effective_calibration_db",
    ),
    "fronthaul": ("FronthaulBudget", "FronthaulParams", "FronthaulTopology"),
    "fading": ("LogNormalShadowing",),
})
