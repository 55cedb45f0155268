"""Corridor-level comparison — the Fig. 4 data series and headline savings."""

from __future__ import annotations

from dataclasses import dataclass

from repro import constants
from repro.corridor.layout import CorridorLayout
from repro.energy.duty import EnergyParams
from repro.energy.scenario import OperatingMode, SegmentEnergy, segment_energy
from repro.errors import ConfigurationError

__all__ = [
    "conventional_reference_w_per_km",
    "savings_fraction",
    "fig4_rows",
    "Fig4Row",
    "CorridorComparison",
    "compare_deployments",
    "PolicyEnergy",
    "simulated_policy_comparison",
]


def conventional_reference_w_per_km(params: EnergyParams | None = None,
                                    isd_m: float = constants.CONVENTIONAL_ISD_M) -> float:
    """Average power per km of the conventional HP-only corridor (~467 W/km)."""
    layout = CorridorLayout.conventional(isd_m)
    return segment_energy(layout, OperatingMode.SLEEP, params).w_per_km


def savings_fraction(result: SegmentEnergy,
                     params: EnergyParams | None = None,
                     reference_w_per_km: float | None = None) -> float:
    """Energy saving of a deployment vs. the conventional corridor (0..1)."""
    ref = reference_w_per_km if reference_w_per_km is not None \
        else conventional_reference_w_per_km(params)
    if ref <= 0:
        raise ConfigurationError(f"reference power must be positive, got {ref}")
    return 1.0 - result.w_per_km / ref


@dataclass(frozen=True)
class Fig4Row:
    """One bar group of Fig. 4: a repeater count with its achievable ISD."""

    n_repeaters: int
    isd_m: float
    continuous_w_per_km: float
    sleep_w_per_km: float
    solar_w_per_km: float
    continuous_savings: float
    sleep_savings: float
    solar_savings: float


def fig4_rows(isd_by_n: dict[int, float] | None = None,
              params: EnergyParams | None = None,
              spacing_m: float = constants.LP_NODE_SPACING_M) -> list[Fig4Row]:
    """Compute the Fig. 4 series for a {repeater count: max ISD} mapping.

    Defaults to the paper's registered ISD list.  The conventional deployment
    is included as the ``n_repeaters=0`` row at 500 m ISD.
    """
    if isd_by_n is None:
        isd_by_n = {n + 1: isd for n, isd in enumerate(constants.PAPER_MAX_ISD_M)}
    params = params or EnergyParams()
    ref = conventional_reference_w_per_km(params)

    rows: list[Fig4Row] = []
    conventional = CorridorLayout.conventional()
    conv = segment_energy(conventional, OperatingMode.SLEEP, params).w_per_km
    rows.append(Fig4Row(0, constants.CONVENTIONAL_ISD_M, conv, conv, conv,
                        0.0, 0.0, 0.0))

    for n in sorted(isd_by_n):
        if n <= 0:
            raise ConfigurationError(f"repeater counts must be >= 1, got {n}")
        layout = CorridorLayout.with_uniform_repeaters(isd_by_n[n], n, spacing_m)
        per_mode = {
            mode: segment_energy(layout, mode, params)
            for mode in OperatingMode
        }
        rows.append(Fig4Row(
            n_repeaters=n,
            isd_m=isd_by_n[n],
            continuous_w_per_km=per_mode[OperatingMode.CONTINUOUS].w_per_km,
            sleep_w_per_km=per_mode[OperatingMode.SLEEP].w_per_km,
            solar_w_per_km=per_mode[OperatingMode.SOLAR].w_per_km,
            continuous_savings=1.0 - per_mode[OperatingMode.CONTINUOUS].w_per_km / ref,
            sleep_savings=1.0 - per_mode[OperatingMode.SLEEP].w_per_km / ref,
            solar_savings=1.0 - per_mode[OperatingMode.SOLAR].w_per_km / ref,
        ))
    return rows


@dataclass(frozen=True)
class CorridorComparison:
    """Corridor-length totals for a proposed deployment vs. the baseline."""

    corridor_km: float
    baseline_w_per_km: float
    proposed_w_per_km: float

    @property
    def savings_fraction(self) -> float:
        return 1.0 - self.proposed_w_per_km / self.baseline_w_per_km

    @property
    def baseline_mwh_per_year(self) -> float:
        return self.baseline_w_per_km * self.corridor_km * 24 * 365 / 1e6

    @property
    def proposed_mwh_per_year(self) -> float:
        return self.proposed_w_per_km * self.corridor_km * 24 * 365 / 1e6

    @property
    def saved_mwh_per_year(self) -> float:
        return self.baseline_mwh_per_year - self.proposed_mwh_per_year


def compare_deployments(layout: CorridorLayout,
                        mode: OperatingMode = OperatingMode.SLEEP,
                        corridor_km: float = 100.0,
                        params: EnergyParams | None = None) -> CorridorComparison:
    """Whole-corridor energy comparison against the conventional baseline."""
    if corridor_km <= 0:
        raise ConfigurationError(f"corridor length must be positive, got {corridor_km}")
    params = params or EnergyParams()
    return CorridorComparison(
        corridor_km=corridor_km,
        baseline_w_per_km=conventional_reference_w_per_km(params),
        proposed_w_per_km=segment_energy(layout, mode, params).w_per_km,
    )


@dataclass(frozen=True)
class PolicyEnergy:
    """Simulated vs. analytic energy of one operating policy.

    ``mean_w_per_km`` / ``std_w_per_km`` / ``ci95_w_per_km`` summarize the
    simulated realizations; ``analytic_w_per_km`` is the duty-cycle model and
    ``savings`` the fraction saved vs. the conventional corridor.
    """

    mode: OperatingMode
    realizations: int
    mean_w_per_km: float
    std_w_per_km: float
    ci95_w_per_km: tuple[float, float]
    analytic_w_per_km: float
    savings: float

    @property
    def simulated_minus_analytic_pct(self) -> float:
        """Bias of the simulation vs. the analytic model, in percent."""
        return 100.0 * (self.mean_w_per_km / self.analytic_w_per_km - 1.0)


def simulated_policy_comparison(layout: CorridorLayout,
                                params: EnergyParams | None = None,
                                realizations: int = 20,
                                stochastic: bool = True,
                                seed: int = 0
                                ) -> dict[OperatingMode, PolicyEnergy]:
    """Sleep-policy energy comparison through the day-simulation engine.

    Simulates the three Fig. 4 operating policies over one shared fleet of
    timetable realizations — common random numbers across policies, so the
    simulated policy gap is free of timetable noise — and pairs each with its
    analytic duty-cycle figure and savings vs. the conventional corridor.
    """
    from repro.simulation.batch import simulate_days
    from repro.traffic.timetable import day_timetables, generate_timetable

    params = params or EnergyParams()
    if stochastic:
        timetables = day_timetables(params.traffic, realizations=realizations,
                                    seed=seed)
    else:
        timetables = (generate_timetable(params.traffic),) * max(1, realizations)
    ref = conventional_reference_w_per_km(params)

    comparison: dict[OperatingMode, PolicyEnergy] = {}
    for mode in OperatingMode:
        sim = simulate_days(layout, mode=mode, params=params,
                            timetables=timetables)
        analytic = segment_energy(layout, mode, params).w_per_km
        comparison[mode] = PolicyEnergy(
            mode=mode,
            realizations=sim.realizations,
            mean_w_per_km=sim.mean_w_per_km(),
            std_w_per_km=sim.std_w_per_km(),
            ci95_w_per_km=sim.ci95_w_per_km(),
            analytic_w_per_km=analytic,
            savings=1.0 - sim.mean_w_per_km() / ref,
        )
    return comparison
