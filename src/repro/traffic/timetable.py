"""Timetable generation for the event-driven simulation.

A timetable is a list of train *runs*: the wall-clock time the train's nose
passes chainage 0 of the simulated corridor segment, its direction, and the
train description.  Deterministic timetables reproduce the analytic duty-cycle
numbers exactly; stochastic ones (Poisson headways, seeded) exercise the sleep
controller under irregular traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.traffic.trains import TrafficParams, Train

__all__ = ["TrainRun", "Timetable", "generate_timetable", "day_timetables"]

_DAY_S = 86_400.0


@dataclass(frozen=True)
class TrainRun:
    """One train crossing the simulated segment.

    ``t0_s`` is when the nose enters chainage 0 for ``direction=+1`` runs or
    chainage L (the segment end) for ``direction=-1`` runs.
    """

    t0_s: float
    train: Train = field(default_factory=Train)
    direction: int = 1

    def __post_init__(self) -> None:
        if self.direction not in (1, -1):
            raise ConfigurationError(f"direction must be +1 or -1, got {self.direction}")
        if self.t0_s < 0:
            raise ConfigurationError(f"run start must be >= 0, got {self.t0_s}")

    def nose_position_m(self, t_s: float, segment_length_m: float) -> float:
        """Nose chainage at time ``t_s`` (may be outside [0, L])."""
        v = self.train.speed_ms
        if self.direction == 1:
            return (t_s - self.t0_s) * v
        return segment_length_m - (t_s - self.t0_s) * v

    def interval_over(self, start_m: float, end_m: float,
                      segment_length_m: float) -> tuple[float, float]:
        """(enter, exit) times during which any part of the train overlaps
        the chainage interval [start_m, end_m]."""
        if end_m < start_m:
            raise ConfigurationError(f"interval end {end_m} before start {start_m}")
        v = self.train.speed_ms
        length = self.train.length_m
        if self.direction == 1:
            enter = self.t0_s + start_m / v            # nose reaches start
            exit_ = self.t0_s + (end_m + length) / v   # tail clears end
        else:
            enter = self.t0_s + (segment_length_m - end_m) / v
            exit_ = self.t0_s + (segment_length_m - start_m + length) / v
        return enter, exit_


@dataclass(frozen=True)
class Timetable:
    """An ordered collection of train runs over one or more days."""

    runs: tuple[TrainRun, ...]
    horizon_s: float = _DAY_S

    def __post_init__(self) -> None:
        if self.horizon_s <= 0:
            raise ConfigurationError(f"horizon must be positive, got {self.horizon_s}")
        starts = [r.t0_s for r in self.runs]
        if list(starts) != sorted(starts):
            raise ConfigurationError("runs must be sorted by start time")

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self):
        return iter(self.runs)


def generate_timetable(params: TrafficParams | None = None,
                       days: float = 1.0,
                       stochastic: bool = False,
                       seed: int | Sequence[int] | None = None) -> Timetable:
    """Build a timetable matching the Table III scenario.

    Deterministic mode places trains at exact headway intervals within the
    service window (night gap at the start of each day), alternating
    directions.  Stochastic mode draws exponential headways with the same
    mean rate; ``seed`` is anything :func:`numpy.random.default_rng` accepts
    (an int, or a ``[seed, realization]`` sequence for the common-random-
    number convention of :func:`day_timetables`).
    """
    params = params or TrafficParams()
    if days <= 0:
        raise ConfigurationError(f"days must be positive, got {days}")
    horizon = days * _DAY_S
    runs: list[TrainRun] = []
    direction = 1

    if not stochastic:
        headway = params.headway_s
        if headway == float("inf"):
            return Timetable(runs=(), horizon_s=horizon)
        day = 0
        while day < days:
            window_start = day * _DAY_S + params.night_quiet_hours * 3600.0
            window_end = (day + 1) * _DAY_S
            t = window_start
            while t < window_end - 1e-9:
                runs.append(TrainRun(t0_s=t, train=params.train, direction=direction))
                direction = -direction
                t += headway
            day += 1
    else:
        rng = np.random.default_rng(seed)
        day = 0
        while day < days:
            window_start = day * _DAY_S + params.night_quiet_hours * 3600.0
            window_end = (day + 1) * _DAY_S
            t = window_start + rng.exponential(params.headway_s)
            while t < window_end:
                direction = 1 if rng.random() < 0.5 else -1
                runs.append(TrainRun(t0_s=t, train=params.train, direction=direction))
                t += rng.exponential(params.headway_s)
            day += 1
        runs.sort(key=lambda r: r.t0_s)

    return Timetable(runs=tuple(runs), horizon_s=horizon)


def day_timetables(params: TrafficParams | None = None,
                   realizations: int = 1,
                   seed: int = 0,
                   days: float = 1.0) -> tuple[Timetable, ...]:
    """Seeded fleet of stochastic day timetables under common random numbers.

    Realization ``r`` is generated from ``default_rng([seed, r])`` — the same
    CRN convention as the trial streams of :mod:`repro.optimize.mc`: the
    Poisson day ``r`` depends only on ``(seed, r)``, never on the layout or
    policy being evaluated, so Monte-Carlo noise cancels out of
    cross-scenario comparisons that share a seed.
    """
    if realizations < 1:
        raise ConfigurationError(
            f"realizations must be >= 1, got {realizations}")
    return tuple(
        generate_timetable(params, days=days, stochastic=True, seed=[seed, r])
        for r in range(realizations))
