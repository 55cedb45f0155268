"""Simulation of one corridor segment over a timetable.

Builds the segment's elements (HP mast RRHs, service nodes, donor nodes) from
the shared :mod:`repro.simulation.elements` specs, feeds a timetable through
them and integrates energy through the vectorized day engine
(:func:`repro.simulation.batch.simulate_days`).  The result carries the same
per-kilometre figures as the analytic model for direct comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import constants
from repro.corridor.layout import CorridorLayout
from repro.energy.duty import EnergyParams
from repro.energy.scenario import OperatingMode
from repro.traffic.timetable import Timetable, generate_timetable

__all__ = ["CorridorSimulation", "SimulatedEnergy"]


@dataclass(frozen=True)
class SimulatedEnergy:
    """Energy outcome of a simulated corridor segment day."""

    layout: CorridorLayout
    mode: OperatingMode
    horizon_s: float
    hp_wh: float
    service_wh: float
    donor_wh: float

    @property
    def total_mains_wh(self) -> float:
        if self.mode is OperatingMode.SOLAR:
            return self.hp_wh
        return self.hp_wh + self.service_wh + self.donor_wh

    @property
    def avg_w_per_km(self) -> float:
        """Average mains power per km — comparable to the analytic figure."""
        hours = self.horizon_s / 3600.0
        return self.total_mains_wh / hours / (self.layout.isd_m / 1000.0)


@dataclass
class CorridorSimulation:
    """One segment + timetable, ready to run.

    ``wake_lead_m`` positions every barrier; ``transition_s`` is the nodes'
    sleep/active transition time (the paper's "few hundred milliseconds").
    """

    layout: CorridorLayout
    mode: OperatingMode = OperatingMode.SLEEP
    params: EnergyParams = field(default_factory=EnergyParams)
    timetable: Timetable | None = None
    transition_s: float = constants.SLEEP_TRANSITION_S
    wake_lead_m: float = 50.0

    def __post_init__(self) -> None:
        if self.timetable is None:
            self.timetable = generate_timetable(self.params.traffic)

    def run(self) -> SimulatedEnergy:
        """Simulate the whole timetable horizon and integrate energy."""
        from repro.simulation.batch import simulate_days

        result = simulate_days(
            self.layout, mode=self.mode, params=self.params,
            timetables=(self.timetable,), transition_s=self.transition_s,
            wake_lead_m=self.wake_lead_m)
        return SimulatedEnergy(
            layout=self.layout,
            mode=self.mode,
            horizon_s=result.horizon_s,
            hp_wh=float(result.hp_wh[0]),
            service_wh=float(result.service_wh[0]),
            donor_wh=float(result.donor_wh[0]),
        )
