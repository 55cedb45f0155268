"""Optimization layer: the paper's max-ISD search plus extensions.

* :mod:`repro.optimize.isd` — for each repeater count, the maximum inter-site
  distance that still sustains peak 5G NR throughput everywhere (Section V).
* :mod:`repro.optimize.mc` — vectorized Monte-Carlo shadowing engine
  (common-random-number trials batched over candidates and positions).
* :mod:`repro.optimize.robustness` — the robust max-ISD boundary under
  shadowing (extension).
* :mod:`repro.optimize.placement` — repeater placement refinement (extension).
"""

from repro._lazy import lazy_exports

__all__ = [
    "max_isd_for_n",
    "sweep_max_isd",
    "IsdSweepResult",
    "OutageMatrix",
    "outage_matrix",
    "wilson_interval",
    "robust_max_isd",
    "optimize_placement",
    "PlacementResult",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "isd": ("IsdSweepResult", "max_isd_for_n", "sweep_max_isd"),
    "mc": ("OutageMatrix", "outage_matrix", "wilson_interval"),
    "placement": ("PlacementResult", "optimize_placement"),
    "robustness": ("robust_max_isd",),
})
