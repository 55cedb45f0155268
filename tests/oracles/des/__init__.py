"""Discrete-event corridor simulation — the sim engine's oracle.

Trains move, photoelectric barriers fire, nodes wake with a finite
transition time, and an energy recorder integrates each unit's power
trajectory, one event at a time through a deterministic event queue
(:mod:`oracles.des.engine`).  :func:`simulate_days_event` replays the same
fleet :func:`repro.simulation.batch.simulate_days` resolves and returns the
same per-element structure, so the two can be compared array by array.
"""

from __future__ import annotations

import math

import numpy as np

from repro import constants
from repro.energy.duty import EnergyParams
from repro.energy.scenario import OperatingMode
from repro.errors import ConfigurationError
from repro.simulation.batch import DayBatchResult, _resolve_timetables
from repro.simulation.elements import ElementSpec, corridor_elements
from repro.traffic.timetable import Timetable

from oracles.des.detectors import PhotoelectricBarrier
from oracles.des.engine import Simulator
from oracles.des.recorder import EnergyRecorder
from oracles.des.statemachine import PowerStateMachine

__all__ = ["simulate_event", "simulate_days_event"]


def simulate_event(specs: tuple[ElementSpec, ...],
                   timetables: tuple[Timetable, ...],
                   seg_m: float, horizon_s: float, transition_s: float,
                   wake_lead_m: float):
    """Replay the fleet through the scalar event queue, one day at a time.

    Per-state seconds are read back from the recorder's time-at-power
    accounting, which assumes the three power levels of an element are
    pairwise distinct (true for the paper's Table II/III parameters);
    energies are exact regardless.

    Returns:
        ``(active_s, awake_s, energy_wh, events)``: three
        ``[realization, element]`` arrays and the fired event count per
        realization.
    """
    seg = seg_m
    shape = (len(timetables), len(specs))
    active_s = np.zeros(shape)
    awake_s = np.zeros(shape)
    energy_wh = np.zeros(shape)
    events = np.zeros(len(timetables), dtype=np.int64)

    for r, timetable in enumerate(timetables):
        sim = Simulator()
        recorder = EnergyRecorder()
        devices = []
        for spec in specs:
            machine = PowerStateMachine(
                name=spec.name, full_load_w=spec.full_load_w,
                no_load_w=spec.no_load_w, sleep_w=spec.sleep_w,
                sleep_capable=spec.sleep_capable, transition_s=transition_s)
            machine.attach(recorder, sim)
            devices.append((machine, PhotoelectricBarrier(
                spec.section_start_m, spec.section_end_m, wake_lead_m)))

        for run in timetable:
            for machine, barrier in devices:
                wake, enter, exit_ = barrier.events_for(run, seg)
                if exit_ <= 0 or wake >= horizon_s:
                    continue
                if machine.sleep_capable:
                    sim.schedule_at(max(0.0, wake), machine.wake)
                sim.schedule_at(max(0.0, enter), machine.train_enter)
                sim.schedule_at(max(0.0, exit_), machine.train_exit)

        sim.run(until=horizon_s)
        recorder.finalize(horizon_s)
        events[r] = sim.processed
        for e, spec in enumerate(specs):
            active_s[r, e] = recorder.seconds_at(spec.name, spec.full_load_w)
            awake_s[r, e] = (
                horizon_s - recorder.seconds_at(spec.name, spec.sleep_w)
                if spec.sleep_capable else horizon_s)
            energy_wh[r, e] = recorder.energy_wh(spec.name)
    return active_s, awake_s, energy_wh, events


def simulate_days_event(layout, mode: OperatingMode = OperatingMode.SLEEP,
                        params: EnergyParams | None = None,
                        timetables=None, realizations: int | None = None,
                        stochastic: bool = False, seed: int = 0,
                        days: float = 1.0,
                        transition_s: float = constants.SLEEP_TRANSITION_S,
                        wake_lead_m: float = 50.0
                        ) -> tuple[DayBatchResult, np.ndarray]:
    """:func:`repro.simulation.batch.simulate_days` through the event queue.

    Takes the same arguments and resolves the same fleet.

    Returns:
        ``(result, events_processed)``: the per-element
        :class:`~repro.simulation.batch.DayBatchResult` and the fired event
        count per realization.
    """
    if not (math.isfinite(transition_s) and transition_s >= 0):
        raise ConfigurationError(
            f"transition time must be finite and >= 0, got {transition_s}")
    if not (math.isfinite(wake_lead_m) and wake_lead_m >= 0):
        raise ConfigurationError(
            f"wake lead must be finite and >= 0, got {wake_lead_m}")
    params = params or EnergyParams()
    resolved = _resolve_timetables(params, timetables, realizations,
                                   stochastic, seed, days)
    specs = corridor_elements(layout, mode, params)
    horizon = resolved[0].horizon_s
    active_s, awake_s, energy_wh, events = simulate_event(
        specs, resolved, layout.isd_m, horizon,
        float(transition_s), float(wake_lead_m))
    result = DayBatchResult(
        layout=layout, mode=mode, horizon_s=horizon,
        element_names=tuple(s.name for s in specs),
        element_kinds=tuple(s.kind for s in specs),
        active_s=active_s, awake_s=awake_s, energy_wh=energy_wh)
    return result, events
