"""The deployment the paper's repeater corridor displaced.

* :mod:`repro.baselines.onboard_relay` — active onboard train relays (650 W),
  the legacy alternative the introduction discusses; :mod:`repro.network`
  offers it as the mobile-relay option.  The HP-only 500 m corridor
  baseline is :meth:`repro.corridor.layout.CorridorLayout.conventional`.
"""

from repro._lazy import lazy_exports

__all__ = ["OnboardRelayFleet"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "onboard_relay": ("OnboardRelayFleet",),
})
