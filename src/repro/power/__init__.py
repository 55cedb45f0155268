"""Power-consumption substrate.

* :mod:`repro.power.earth_model` — the EARTH parameterized model (Eq. 3),
* :mod:`repro.power.components` — the Table I component-level breakdown of the
  low-power repeater prototype,
* :mod:`repro.power.profiles` — named Table II parameter sets and mast-level
  aggregation.
"""

from repro._lazy import lazy_exports

__all__ = [
    "EarthPowerModel",
    "PowerState",
    "Component",
    "ComponentMode",
    "RepeaterBill",
    "repeater_prototype_bill",
    "PowerProfile",
    "HP_RRH_PROFILE",
    "LP_REPEATER_PROFILE",
    "hp_site_power_w",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "earth_model": ("EarthPowerModel", "PowerState"),
    "components": (
        "Component", "ComponentMode", "RepeaterBill",
        "repeater_prototype_bill",
    ),
    "profiles": (
        "HP_RRH_PROFILE", "LP_REPEATER_PROFILE", "hp_site_power_w",
        "PowerProfile",
    ),
})
