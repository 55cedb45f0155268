"""Extension experiments — analyses beyond the paper's figures.

These quantify claims the paper makes in passing (EMF-driven siting, uplink
closure, capacity experienced on board) and the deployment questions a
downstream operator asks next (cost, robustness, battery aging).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import constants
from repro.corridor.deployment import CorridorDeployment
from repro.corridor.layout import CorridorLayout
from repro.economics.costmodel import CostAssumptions, corridor_cost
from repro.emf.compliance import node_compliance
from repro.energy.scenario import OperatingMode
from repro.mobility.traversal import simulate_traversal
from repro.propagation.fading import LogNormalShadowing
from repro.radio.uplink import UplinkParams, compute_uplink_profile
from repro.reporting.tables import format_table
from repro.solar.climates import LOCATIONS
from repro.solar.degradation import project_lifetime

__all__ = [
    "run_emf", "EmfResult",
    "run_uplink", "UplinkResult",
    "run_traversal", "TraversalExperiment",
    "run_economics", "EconomicsResult",
    "run_robustness", "RobustnessResult",
    "run_lifetime", "LifetimeExperiment",
    "run_demand", "DemandExperiment",
    "run_cell_border", "CellBorderExperiment",
]


# --- EMF compliance -----------------------------------------------------------

@dataclass(frozen=True)
class EmfResult:
    hp: dict[str, float]
    lp: dict[str, float]

    def table(self) -> str:
        regimes = sorted(self.hp)
        rows = [[r, self.hp[r], self.lp[r]] for r in regimes]
        return format_table(
            ["regime", "HP (64 dBm) dist [m]", "LP (40 dBm) dist [m]"],
            rows, title="EMF compliance distances per regulatory regime")

    def series(self) -> dict[str, list]:
        regimes = sorted(self.hp)
        return {"regime": regimes,
                "hp_distance_m": [self.hp[r] for r in regimes],
                "lp_distance_m": [self.lp[r] for r in regimes]}


def run_emf() -> EmfResult:
    """Compliance distances of the corridor's two transmitter classes."""
    return EmfResult(hp=node_compliance(constants.HP_EIRP_DBM).distances_m,
                     lp=node_compliance(constants.LP_EIRP_DBM).distances_m)


# --- uplink closure -------------------------------------------------------------

@dataclass(frozen=True)
class UplinkResult:
    rows: list[tuple[int, float, float, float]]  # (N, ISD, UL min SNR, DL min SNR)

    def table(self) -> str:
        return format_table(
            ["N", "ISD [m]", "UL min SNR [dB]", "DL min SNR [dB]"],
            [list(r) for r in self.rows],
            title="Uplink closure at the registered maximum ISDs")

    def series(self) -> dict[str, list]:
        return {"n_repeaters": [r[0] for r in self.rows],
                "isd_m": [r[1] for r in self.rows],
                "ul_min_snr_db": [r[2] for r in self.rows],
                "dl_min_snr_db": [r[3] for r in self.rows]}


def run_uplink(resolution_m: float = 2.0) -> UplinkResult:
    """Uplink SNR at every registered (N, max ISD) operating point."""
    from repro.radio.link import compute_snr_profile

    rows = []
    params = UplinkParams()
    for n, isd in enumerate(constants.PAPER_MAX_ISD_M, start=1):
        layout = CorridorLayout.with_uniform_repeaters(isd, n)
        ul = compute_uplink_profile(layout, params, resolution_m)
        dl = compute_snr_profile(layout, resolution_m=resolution_m)
        rows.append((n, isd, ul.min_snr_db, dl.min_snr_db))
    return UplinkResult(rows=rows)


# --- onboard traversal -------------------------------------------------------------

@dataclass(frozen=True)
class TraversalExperiment:
    rows: list[tuple[str, float, float, float]]

    def table(self) -> str:
        return format_table(
            ["deployment", "duration [s]", "volume [Gbit]", "Gbit per km"],
            [list(r) for r in self.rows],
            title="Data volume available to one train traversal")

    def series(self) -> dict[str, list]:
        return {"deployment": [r[0] for r in self.rows],
                "duration_s": [r[1] for r in self.rows],
                "volume_gbit": [r[2] for r in self.rows],
                "gbit_per_km": [r[3] for r in self.rows]}


def run_traversal() -> TraversalExperiment:
    """Per-traversal data volume: conventional vs. repeater-extended."""
    cases = {"conventional 500 m": CorridorLayout.conventional(),
             "N=8 @ 2400 m": CorridorLayout.with_uniform_repeaters(2400.0, 8),
             "N=10 @ 2650 m": CorridorLayout.with_uniform_repeaters(2650.0, 10)}
    rows = []
    for name, layout in cases.items():
        result = simulate_traversal(layout)
        gbit = result.data_volume_bit / 1e9
        rows.append((name, result.duration_s, gbit, gbit / (layout.isd_m / 1000)))
    return TraversalExperiment(rows=rows)


# --- economics ---------------------------------------------------------------------

@dataclass(frozen=True)
class EconomicsResult:
    rows: list[tuple[str, float, float, float, float]]

    def table(self) -> str:
        return format_table(
            ["deployment", "CAPEX [MEUR]", "energy OPEX [MEUR]",
             "maint OPEX [MEUR]", "10 yr total [MEUR]"],
            [list(r) for r in self.rows],
            title="100 km corridor, 10-year cost comparison")

    def series(self) -> dict[str, list]:
        return {"deployment": [r[0] for r in self.rows],
                "capex_meur": [r[1] for r in self.rows],
                "energy_opex_meur": [r[2] for r in self.rows],
                "maintenance_opex_meur": [r[3] for r in self.rows],
                "total_meur": [r[4] for r in self.rows]}


def run_economics(corridor_km: float = 100.0,
                  horizon_years: float = 10.0,
                  assumptions: CostAssumptions | None = None) -> EconomicsResult:
    """Ten-year cost of the three deployment strategies."""
    cases = {
        "conventional": (CorridorDeployment.conventional(), OperatingMode.SLEEP),
        "repeaters, sleep": (CorridorDeployment.with_repeaters(2650.0, 10),
                             OperatingMode.SLEEP),
        "repeaters, solar": (CorridorDeployment.with_repeaters(2650.0, 10),
                             OperatingMode.SOLAR),
    }
    rows = []
    for name, (deployment, mode) in cases.items():
        cost = corridor_cost(deployment, mode, corridor_km, horizon_years,
                             assumptions)
        rows.append((name, cost.capex / 1e6, cost.energy_opex / 1e6,
                     cost.maintenance_opex / 1e6, cost.total / 1e6))
    return EconomicsResult(rows=rows)


# --- shadowing robustness --------------------------------------------------------------

@dataclass(frozen=True)
class RobustnessResult:
    rows: list[tuple[int, float, float, float, float]]
    sigma_db: float

    def table(self) -> str:
        return format_table(
            ["N", "registered ISD [m]", "outage probability", "95% CI low", "95% CI high"],
            [list(r) for r in self.rows],
            title=f"Shadowing outage at the registered ISDs (sigma {self.sigma_db} dB)")

    def series(self) -> dict[str, list]:
        return {"n_repeaters": [r[0] for r in self.rows],
                "isd_m": [r[1] for r in self.rows],
                "outage_probability": [r[2] for r in self.rows],
                "outage_ci95_low": [r[3] for r in self.rows],
                "outage_ci95_high": [r[4] for r in self.rows]}


def run_robustness(sigma_db: float = 4.0, trials: int = 60,
                   counts=(1, 4, 8, 10),
                   jobs: int | None = None) -> RobustnessResult:
    """Outage probability of the paper's operating points under shadowing.

    The deterministic profiles of all operating points come from one
    batched-engine call and the Monte-Carlo trials of *all* points run as one
    stacked :func:`repro.optimize.mc.outage_matrix` evaluation under common
    random numbers, with a Wilson 95% interval per point.
    """
    from repro.optimize.mc import outage_matrix
    from repro.radio.batch import evaluate_scenarios
    from repro.scenario.spec import Scenario

    shadowing = LogNormalShadowing(sigma_db=sigma_db)
    layouts = [
        CorridorLayout.with_uniform_repeaters(constants.PAPER_MAX_ISD_M[n - 1], n)
        for n in counts
    ]
    profiles = evaluate_scenarios(
        [Scenario(layout=lo, resolution_m=10.0) for lo in layouts], jobs=jobs)
    matrix = outage_matrix(profiles, shadowing, trials=trials)
    ci_low, ci_high = matrix.ci95()
    rows = [
        (n, layout.isd_m, float(outage), float(low), float(high))
        for n, layout, outage, low, high in zip(
            counts, layouts, matrix.outage_probability, ci_low, ci_high)
    ]
    return RobustnessResult(rows=rows, sigma_db=sigma_db)


# --- battery lifetime --------------------------------------------------------------------

@dataclass(frozen=True)
class LifetimeExperiment:
    rows: list[tuple[str, float, float, str]]

    def table(self) -> str:
        return format_table(
            ["location", "PV [Wp]", "battery [Wh]", "10-year outcome"],
            [list(r) for r in self.rows],
            title="Table IV systems over a 10-year service life")

    def series(self) -> dict[str, list]:
        return {"location": [r[0] for r in self.rows],
                "pv_peak_w": [r[1] for r in self.rows],
                "battery_wh": [r[2] for r in self.rows],
                "outcome": [r[3] for r in self.rows]}


def run_lifetime(service_years: int = 10, weather_cache=None) -> LifetimeExperiment:
    """Project the Table IV configurations across their service life.

    All service years of one configuration run as a single batched off-grid
    engine pass (:mod:`repro.solar.batch`); ``weather_cache`` optionally
    persists the per-year weather tensors across runs.
    """
    configs = {"madrid": (540.0, 720.0), "lyon": (540.0, 720.0),
               "vienna": (540.0, 1440.0), "berlin": (600.0, 1440.0)}
    rows = []
    for key, (pv, battery) in configs.items():
        result = project_lifetime(LOCATIONS[key], pv, battery,
                                  service_years=service_years,
                                  weather_cache=weather_cache)
        year = result.first_downtime_year
        outcome = "zero downtime" if year is None else f"downtime in year {year}"
        rows.append((LOCATIONS[key].name, pv, battery, outcome))
    return LifetimeExperiment(rows=rows)


# --- demand-driven load ---------------------------------------------------------

@dataclass(frozen=True)
class DemandExperiment:
    rows: list[tuple[str, float, float, float]]

    def table(self) -> str:
        return format_table(
            ["demand scenario", "load chi", "HP RRH avg [W]", "LP node avg [W]"],
            [list(r) for r in self.rows],
            title="Demand-driven load vs the paper's full-buffer assumption")

    def series(self) -> dict[str, list]:
        return {"scenario": [r[0] for r in self.rows],
                "chi": [r[1] for r in self.rows],
                "hp_avg_w": [r[2] for r in self.rows],
                "lp_avg_w": [r[3] for r in self.rows]}


def run_demand(isd_m: float = 2650.0) -> DemandExperiment:
    """Average powers under full-buffer vs realistic passenger demand."""
    from repro.power.profiles import HP_RRH_PROFILE, LP_REPEATER_PROFILE
    from repro.traffic.loadmodel import (
        DemandModel,
        average_power_with_demand_w,
        demand_load_fraction,
    )

    scenarios = {
        "full buffer (paper)": DemandModel(rate_per_active_bps=100e6),
        "busy commuter train": DemandModel(),
        "off-peak train": DemandModel(occupancy=0.25, active_share=0.25),
    }
    rows = []
    for name, demand in scenarios.items():
        chi = demand_load_fraction(demand)
        hp = average_power_with_demand_w(isd_m, HP_RRH_PROFILE.model, demand)
        lp = average_power_with_demand_w(
            constants.LP_NODE_SPACING_M, LP_REPEATER_PROFILE.model, demand)
        rows.append((name, chi, hp, lp))
    return DemandExperiment(rows=rows)


# --- BBU cell borders --------------------------------------------------------------

@dataclass(frozen=True)
class CellBorderExperiment:
    border_sinr_db: float
    outage_span_29db_m: float
    outage_span_10db_m: float

    def table(self) -> str:
        rows = [
            ["SINR at the border [dB]", self.border_sinr_db],
            ["below 29 dB (peak) per side [m]", self.outage_span_29db_m],
            ["below 10 dB per side [m]", self.outage_span_10db_m],
        ]
        return format_table(["quantity", "value"], rows,
                            title="Co-channel dip at a BBU cell border")

    def series(self) -> dict[str, list]:
        return {"quantity": ["border_sinr_db", "outage_29db_m", "outage_10db_m"],
                "value": [self.border_sinr_db, self.outage_span_29db_m,
                          self.outage_span_10db_m]}


def run_cell_border() -> CellBorderExperiment:
    """Quantify the SINR dip between adjacent same-carrier stretched cells."""
    from repro.radio.interference import cell_border_sinr, peak_outage_span_m

    profile = cell_border_sinr()
    return CellBorderExperiment(
        border_sinr_db=profile.border_sinr_db,
        outage_span_29db_m=peak_outage_span_m(),
        outage_span_10db_m=peak_outage_span_m(threshold_db=10.0),
    )
