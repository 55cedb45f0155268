"""Train traffic substrate — the Table III scenario.

High-speed corridor: 8 trains/h during the 19 service hours, no passenger
traffic for 5 h at night, 400 m trains at 200 km/h.  The package provides the
train/timetable description, deterministic and stochastic timetable
generation, and the coverage-section occupancy math that drives every duty
cycle in the paper.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Train",
    "TrafficParams",
    "Timetable",
    "TrainRun",
    "generate_timetable",
    "day_timetables",
    "full_load_seconds_per_train",
    "duty_cycle",
    "occupancy_seconds_per_day",
    "trains_per_day",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "trains": ("Train", "TrafficParams"),
    "timetable": (
        "Timetable", "TrainRun", "day_timetables", "generate_timetable",
    ),
    "occupancy": (
        "full_load_seconds_per_train", "duty_cycle",
        "occupancy_seconds_per_day", "trains_per_day",
    ),
})
