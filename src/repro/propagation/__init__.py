"""Radio propagation substrate.

Implements the paper's calibrated Friis port-to-port attenuation (Eq. 1) plus
the supporting propagation models the corridor system depends on: the mmWave
donor fronthaul link budget and log-normal shadowing for Monte-Carlo
extensions.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CalibratedFriis",
    "free_space_path_loss_db",
    "friis_constant_db",
    "FronthaulParams",
    "FronthaulTopology",
    "FronthaulBudget",
    "LogNormalShadowing",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "friis": (
        "CalibratedFriis", "free_space_path_loss_db", "friis_constant_db",
    ),
    "fronthaul": ("FronthaulBudget", "FronthaulParams", "FronthaulTopology"),
    "fading": ("LogNormalShadowing",),
})
