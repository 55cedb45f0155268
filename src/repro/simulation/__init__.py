"""Simulation of the corridor's sleep-mode operation.

The analytic energy model (:mod:`repro.energy`) assumes ideal, instantaneous
state switching.  This package simulates the corridor's timetable — trains
move, photoelectric barriers fire, nodes wake with a finite transition time,
energy integrates over the actual power trajectory — as interval algebra over
whole fleets of days (:mod:`repro.simulation.batch`), providing an
independent cross-check of the analytic numbers and a way to quantify
non-idealities (wake latency, detection margins, irregular timetables).
"""

from repro._lazy import lazy_exports

__all__ = [
    "ElementSpec",
    "corridor_elements",
    "DayBatchResult",
    "simulate_days",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "elements": ("ElementSpec", "corridor_elements"),
    "batch": ("DayBatchResult", "simulate_days"),
})
