"""EMF exposure compliance — the constraint that motivates the paper.

"Considering higher frequency bands used by 5G and the stringent
electromagnetic field (EMF) limits enforced in certain countries (e.g.,
Canada, Italy, Poland, Switzerland, China, Russia), ISDs of a few 100's of
meters up to 1000 m are necessary" (Section I).

This package quantifies that constraint: far-field power density around the
corridor's transmitters, compliance distances against ICNIRP and the stricter
national installation limits, and the EMF argument for low-power repeaters
(their 10 W EIRP is compliant within metres even under the strictest rules).
"""

from repro._lazy import lazy_exports

__all__ = [
    "EmfLimit",
    "ICNIRP_GENERAL_PUBLIC",
    "STRICT_INSTALLATION_LIMITS",
    "power_density_w_m2",
    "field_strength_v_m",
    "compliance_distance_m",
    "node_compliance",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "compliance": (
        "EmfLimit", "ICNIRP_GENERAL_PUBLIC", "STRICT_INSTALLATION_LIMITS",
        "compliance_distance_m", "power_density_w_m2", "field_strength_v_m",
        "node_compliance",
    ),
})
