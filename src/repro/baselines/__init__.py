"""Baseline deployments the paper compares against (or displaced).

* :mod:`repro.baselines.conventional` — the HP-only 500 m corridor baseline,
* :mod:`repro.baselines.onboard_relay` — active onboard train relays (650 W),
  the legacy alternative the introduction discusses,
* :mod:`repro.baselines.inband` — in-band repeater isolation feasibility,
  explaining why the paper uses out-of-band repeaters outdoors.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ConventionalCorridor",
    "OnboardRelayFleet",
    "InbandFeasibility",
    "inband_isolation_margin_db",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "conventional": ("ConventionalCorridor",),
    "onboard_relay": ("OnboardRelayFleet",),
    "inband": ("InbandFeasibility", "inband_isolation_margin_db"),
})
