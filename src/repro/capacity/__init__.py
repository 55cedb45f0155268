"""Data-capacity estimation from SNR.

Implements the calibrated truncated Shannon bound of 3GPP TR 36.942 Annex A.2
with the paper's parameters (attenuation factor 0.6, maximum spectral
efficiency 5.84 bps/Hz) and helpers that turn an SNR profile along the track
into a throughput profile.
"""

from repro._lazy import lazy_exports

__all__ = [
    "TruncatedShannonModel",
    "peak_snr_threshold_db",
    "ThroughputProfile",
    "throughput_profile",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "shannon": ("TruncatedShannonModel", "peak_snr_threshold_db"),
    "throughput": ("ThroughputProfile", "throughput_profile"),
})
