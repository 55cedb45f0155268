"""Corridor-graph data model: corridors, segments, speed classes, demand.

A :class:`NetworkGraph` is a validated tree of corridors with unique names,
each an ordered run of named segments, stored as columns (lengths,
speed-class and demand indices, names): the batched frontier pass and the
optimizer read only those, so a 10 000-segment graph is a handful of
arrays, never 10 000 segment objects.

Demand is per segment: a :class:`DemandProfile` (trains/h, night quiet
hours, train length) that combines with the segment's :class:`SpeedClass`
into the :class:`repro.traffic.trains.TrafficParams` the duty-cycle energy
model consumes.  Profiles can be scaled for what-if sweeps
(:meth:`DemandProfile.scaled` — the study layer's ``demand_scale`` axis).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from repro import constants
from repro.errors import ConfigurationError, GeometryError
from repro.traffic.trains import Train, TrafficParams

__all__ = ["SpeedClass", "SPEED_CLASSES", "DemandProfile", "NetworkGraph"]


@dataclass(frozen=True)
class SpeedClass:
    """A line-speed category: the cruise speed trains run on such segments."""

    name: str
    train_speed_kmh: float

    def __post_init__(self) -> None:
        if self.train_speed_kmh <= 0:
            raise ConfigurationError(
                f"speed class {self.name!r}: speed must be positive, "
                f"got {self.train_speed_kmh}")


#: The shipped speed classes.  ``highspeed`` matches the paper's 200 km/h
#: scenario (Table III), so a highspeed segment with the default demand
#: profile reproduces the single-corridor energy numbers bit-identically.
SPEED_CLASSES: dict[str, SpeedClass] = {
    cls.name: cls for cls in (
        SpeedClass("station", 80.0),
        SpeedClass("regional", 160.0),
        SpeedClass("highspeed", constants.TRAIN_SPEED_KMH),
    )
}


@dataclass(frozen=True)
class DemandProfile:
    """Offered traffic demand on a segment (the Table III axes, per segment).

    Defaults reproduce the paper's scenario: 8 trains/h over 19 service
    hours, 400 m trains.  The cruise speed is *not* part of the profile —
    it comes from the segment's :class:`SpeedClass` — so one profile can be
    shared across heterogeneous segments of a corridor.
    """

    trains_per_hour: float = constants.TRAINS_PER_HOUR
    night_quiet_hours: float = constants.NIGHT_QUIET_HOURS
    train_length_m: float = constants.TRAIN_LENGTH_M

    def __post_init__(self) -> None:
        if not (math.isfinite(self.trains_per_hour)
                and self.trains_per_hour >= 0):
            raise ConfigurationError(
                f"trains/h must be finite and >= 0, "
                f"got {self.trains_per_hour}")
        if not 0 <= self.night_quiet_hours <= 24:
            raise ConfigurationError(
                f"night quiet hours must be within [0, 24], "
                f"got {self.night_quiet_hours}")
        if not (math.isfinite(self.train_length_m)
                and self.train_length_m > 0):
            raise ConfigurationError(
                f"train length must be finite and positive, "
                f"got {self.train_length_m}")

    @property
    def headway_s(self) -> float:
        """Mean time between trains during service hours (inf when idle)."""
        if self.trains_per_hour == 0:
            return float("inf")
        return 3600.0 / self.trains_per_hour

    def scaled(self, factor: float) -> "DemandProfile":
        """The same profile with ``trains_per_hour`` scaled by ``factor``."""
        if not (math.isfinite(factor) and factor >= 0):
            raise ConfigurationError(
                f"demand factor must be finite and >= 0, got {factor}")
        return replace(self, trains_per_hour=self.trains_per_hour * factor)

    def traffic(self, speed_kmh: float = constants.TRAIN_SPEED_KMH) -> TrafficParams:
        """The :class:`TrafficParams` this demand implies at a cruise speed."""
        return TrafficParams(
            trains_per_hour=self.trains_per_hour,
            night_quiet_hours=self.night_quiet_hours,
            train=Train(length_m=self.train_length_m, speed_kmh=speed_kmh))


class NetworkGraph:
    """A whole network: corridors with unique names, stored as columns.

    The flat segment order — corridors in declaration order, segments in
    corridor order — is the canonical axis every frontier/assignment array
    in :mod:`repro.network` is aligned with.  The graph stores that axis as
    read-only columns, derived once at construction:

    * ``corridor_names`` and ``corridor_offsets`` — corridor ``c`` owns the
      segments ``corridor_offsets[c]:corridor_offsets[c + 1]``;
    * ``local_names`` — each segment's name within its corridor;
    * ``segment_length_km`` — float64 segment lengths;
    * ``speed_index`` into the ``speed_classes`` name table and
      ``demand_index`` into the ``demands`` :class:`DemandProfile` table.

    Every column is validated at construction.
    """

    def __init__(self, corridor_names: tuple[str, ...], corridor_sizes,
                 local_names: tuple[str, ...], segment_length_km,
                 speed_classes: tuple[str, ...], speed_index,
                 demands: tuple[DemandProfile, ...], demand_index) -> None:
        """Build a graph from its segment columns.

        Args:
            corridor_names: One name per corridor, in canonical order.
            corridor_sizes: Segment count of each corridor.
            local_names: Each segment's name within its corridor.
            segment_length_km: Each segment's length [km].
            speed_classes: Table of speed-class names (keys of
                :data:`SPEED_CLASSES`), each listed once.
            speed_index: Each segment's row in ``speed_classes``.
            demands: Table of demand profiles, each value listed once.
            demand_index: Each segment's row in ``demands``.

        Raises:
            GeometryError: For a segment length that is not finite
                and positive.
            ConfigurationError: For an unknown speed class, an empty or
                duplicate name, an empty corridor or mismatched columns.
        """
        vars(self).update(
            corridor_names=tuple(corridor_names),
            corridor_offsets=_column(
                np.concatenate(([0], np.cumsum(corridor_sizes))), np.intp),
            local_names=tuple(local_names),
            segment_length_km=_column(segment_length_km, np.float64),
            speed_classes=tuple(speed_classes),
            speed_index=_column(speed_index, np.intp),
            demands=tuple(demands),
            demand_index=_column(demand_index, np.intp))
        self._validate()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"NetworkGraph is immutable: cannot set {name!r}")

    def _validate(self) -> None:
        names = self.corridor_names
        if not names:
            raise ConfigurationError("a network needs at least one corridor")
        if not all(names):
            raise ConfigurationError("a corridor needs a non-empty name")
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate corridor names: {list(names)}")
        if self.corridor_offsets.size != len(names) + 1:
            raise ConfigurationError(
                f"need one segment count per corridor, got "
                f"{self.corridor_offsets.size - 1} for {len(names)}")
        empty = np.flatnonzero(np.diff(self.corridor_offsets) <= 0)
        if empty.size:
            raise ConfigurationError(
                f"corridor {names[empty[0]]!r} needs at least one segment")
        n = self.n_segments
        if any(len(column) != n for column in (
                self.local_names, self.segment_length_km, self.speed_index,
                self.demand_index)):
            raise ConfigurationError(
                f"every segment column needs one entry per segment ({n})")
        for index, table in ((self.speed_index, self.speed_classes),
                             (self.demand_index, self.demands)):
            if index.min() < 0 or index.max() >= len(table):
                raise ConfigurationError(
                    f"segment table index out of range [0, {len(table)})")
        local = self.local_names
        if not all(local):
            raise ConfigurationError("a segment needs a non-empty name")
        for name, start, stop in self._corridor_bounds():
            if len(set(local[start:stop])) != stop - start:
                raise ConfigurationError(
                    f"corridor {name!r} has duplicate segment names")
        lengths = self.segment_length_km
        bad = np.flatnonzero(~(np.isfinite(lengths) & (lengths > 0)))
        if bad.size:
            i = bad[0]
            raise GeometryError(
                f"{local[i]}: segment length must be finite and positive, "
                f"got {float(lengths[i])}")
        known = np.array([name in SPEED_CLASSES
                          for name in self.speed_classes], dtype=bool)
        bad = np.flatnonzero(~known[self.speed_index])
        if bad.size:
            i = bad[0]
            raise ConfigurationError(
                f"{local[i]}: unknown speed class "
                f"{self.speed_classes[self.speed_index[i]]!r}; "
                f"available: {sorted(SPEED_CLASSES)}")

    def _corridor_bounds(self):
        """``(name, start, stop)`` of each corridor's segment range."""
        offsets = self.corridor_offsets.tolist()
        return zip(self.corridor_names, offsets[:-1], offsets[1:])

    @functools.cached_property
    def segment_names(self) -> tuple[str, ...]:
        """Qualified ``corridor/segment`` names in canonical order."""
        local = self.local_names
        return tuple(f"{name}/{segment}"
                     for name, start, stop in self._corridor_bounds()
                     for segment in local[start:stop])

    def segment_name(self, index: int) -> str:
        """Qualified ``corridor/segment`` name of the segment at ``index``."""
        corridor = int(np.searchsorted(self.corridor_offsets, index,
                                       side="right")) - 1
        return f"{self.corridor_names[corridor]}/{self.local_names[index]}"

    @property
    def n_segments(self) -> int:
        """Total segment count across all corridors."""
        return int(self.corridor_offsets[-1])

    @functools.cached_property
    def length_km(self) -> float:
        """Total network track length.

        Summed with Python ``sum`` per corridor, then across corridors.
        Python 3.12's ``sum`` is compensated, so only this order (not
        ``np.sum`` nor one flat ``sum``) gives the same bits on 3.11 and
        3.12.
        """
        lengths = self.segment_length_km.tolist()
        return sum(sum(lengths[start:stop])
                   for _, start, stop in self._corridor_bounds())


def _column(values, dtype) -> np.ndarray:
    """A read-only array copy: graphs are memoized and shared, never mutated."""
    column = np.array(values, dtype=dtype)
    column.setflags(write=False)
    return column
