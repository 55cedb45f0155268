"""Radio layer: NR carrier accounting, node descriptions, noise, SNR profiles.

This package turns a corridor layout into the Eq. (2) SNR profile along the
track: per-subcarrier transmit powers (RSTP) from EIRP, calibrated attenuation
per node class, noise aggregation (terminal + repeater) and the resulting SNR.
"""

from repro._lazy import lazy_exports

__all__ = [
    "NrCarrier",
    "rstp_dbm_from_eirp",
    "HighPowerSite",
    "RepeaterNode",
    "DonorNode",
    "RepeaterNoiseModel",
    "thermal_noise_dbm",
    "LinkParams",
    "SnrProfile",
    "chain_hop_assignment",
    "compute_snr_profile",
    "evaluate_scenarios",
    "min_snr_batch",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "carrier": ("NrCarrier", "rstp_dbm_from_eirp"),
    "nodes": ("DonorNode", "HighPowerSite", "RepeaterNode"),
    "noise": ("RepeaterNoiseModel", "thermal_noise_dbm"),
    "link": (
        "LinkParams", "SnrProfile", "chain_hop_assignment",
        "compute_snr_profile",
    ),
    "batch": ("evaluate_scenarios", "min_snr_batch"),
})
