"""Analytic energy model — reproduces Fig. 4 and the Section V savings.

Combines the power profiles (:mod:`repro.power`), the traffic duty cycles
(:mod:`repro.traffic`) and the corridor geometry (:mod:`repro.corridor`) into
per-kilometre average power figures for the three operating policies the paper
compares: continuously powered repeaters, sleep-mode repeaters, and
solar-powered repeaters.
"""

from repro._lazy import lazy_exports

__all__ = [
    "EnergyParams",
    "DonorDutyModel",
    "lp_node_average_power_w",
    "donor_average_power_w",
    "hp_mast_average_power_w",
    "OperatingMode",
    "SegmentEnergy",
    "segment_energy",
    "conventional_reference_w_per_km",
    "savings_fraction",
    "fig4_rows",
    "CorridorComparison",
    "compare_deployments",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "duty": (
        "DonorDutyModel", "EnergyParams", "donor_average_power_w",
        "hp_mast_average_power_w", "lp_node_average_power_w",
    ),
    "scenario": ("OperatingMode", "SegmentEnergy", "segment_energy"),
    "analysis": (
        "CorridorComparison", "compare_deployments",
        "conventional_reference_w_per_km", "fig4_rows", "savings_fraction",
    ),
})
