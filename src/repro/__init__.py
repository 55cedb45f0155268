"""repro — reproduction of "Increasing Cellular Network Energy Efficiency for
Railway Corridors" (Schumacher, Merz, Burg — DATE 2022).

The package models a railway cellular corridor: high-power RRH masts providing
a linear 5G NR cell, low-power out-of-band repeater nodes extending the
inter-site distance, the traffic-driven sleep mode, and off-grid solar
powering of the repeaters — together with the analysis that reproduces every
table and figure of the paper (see docs/reproducing.md and EXPERIMENTS.md).

Quickstart::

    from repro import CorridorLayout, compute_snr_profile, segment_energy, OperatingMode

    layout = CorridorLayout.with_uniform_repeaters(isd_m=2400, n_repeaters=8)
    profile = compute_snr_profile(layout)
    energy = segment_energy(layout, OperatingMode.SLEEP)
    print(profile.min_snr_db, energy.w_per_km)
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "constants",
    "CorridorLayout",
    "CorridorDeployment",
    "CatenaryGrid",
    "donor_node_count",
    "LinkParams",
    "NrCarrier",
    "RepeaterNoiseModel",
    "compute_snr_profile",
    "evaluate_scenarios",
    "min_snr_batch",
    "Scenario",
    "ScenarioGrid",
    "ProfileCache",
    "TruncatedShannonModel",
    "peak_snr_threshold_db",
    "throughput_profile",
    "EarthPowerModel",
    "PowerState",
    "HP_RRH_PROFILE",
    "LP_REPEATER_PROFILE",
    "hp_site_power_w",
    "repeater_prototype_bill",
    "TrafficParams",
    "duty_cycle",
    "generate_timetable",
    "day_timetables",
    "CorridorSimulation",
    "simulate_days",
    "EnergyParams",
    "OperatingMode",
    "segment_energy",
    "fig4_rows",
    "conventional_reference_w_per_km",
    "compare_deployments",
    "max_isd_for_n",
    "sweep_max_isd",
    "optimize_placement",
    "outage_matrix",
    "outage_probability",
    "robust_max_isd",
    "UplinkParams",
    "compute_uplink_profile",
    "simulate_traversal",
    "node_compliance",
    "corridor_cost",
    "retrofit_payback_years",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "capacity": (
        "TruncatedShannonModel", "peak_snr_threshold_db", "throughput_profile",
    ),
    "corridor": (
        "CatenaryGrid", "CorridorDeployment", "CorridorLayout",
        "donor_node_count",
    ),
    "energy": (
        "EnergyParams", "OperatingMode", "compare_deployments",
        "conventional_reference_w_per_km", "fig4_rows", "segment_energy",
    ),
    "optimize": (
        "max_isd_for_n", "optimize_placement", "outage_matrix",
        "outage_probability", "robust_max_isd", "sweep_max_isd",
    ),
    "power": (
        "EarthPowerModel", "HP_RRH_PROFILE", "LP_REPEATER_PROFILE",
        "PowerState", "hp_site_power_w", "repeater_prototype_bill",
    ),
    "radio": (
        "LinkParams", "NrCarrier", "RepeaterNoiseModel", "compute_snr_profile",
        "evaluate_scenarios", "min_snr_batch",
    ),
    "radio.uplink": ("UplinkParams", "compute_uplink_profile"),
    "scenario": ("ProfileCache", "Scenario", "ScenarioGrid"),
    "traffic": (
        "TrafficParams", "day_timetables", "duty_cycle", "generate_timetable",
    ),
    "simulation": ("CorridorSimulation", "simulate_days"),
    "mobility": ("simulate_traversal",),
    "emf": ("node_compliance",),
    "economics": ("corridor_cost", "retrofit_payback_years"),
})
