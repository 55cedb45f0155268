"""Corridor-graph data model: corridors, segments, speed classes, demand.

A :class:`NetworkGraph` is a validated tree — corridors with unique names,
each an ordered tuple of :class:`NetworkSegment`\\ s — mirroring the
validation discipline of :class:`repro.corridor.multisegment.LinePlan`,
which it subsumes: :meth:`NetworkGraph.from_line_plan` lifts a line plan
into a single-corridor graph whose fixed-technology evaluation reproduces
the plan's energy totals exactly (see
:func:`repro.network.frontier.fixed_options_power_w`).  The graph stores
its segments as columns (lengths, speed-class and demand indices, names);
the batched frontier pass and the optimizer read only those, so a
10 000-segment graph never needs 10 000 segment objects.

Demand is per segment: a :class:`DemandProfile` (trains/h, night quiet
hours, train length) that combines with the segment's :class:`SpeedClass`
into the :class:`repro.traffic.trains.TrafficParams` the duty-cycle energy
model consumes.  Profiles can be derived from :mod:`repro.traffic`
timetables (:meth:`DemandProfile.from_timetable`) or scaled for what-if
sweeps (:meth:`DemandProfile.scaled` — the study layer's ``demand_scale``
axis).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from repro import constants
from repro.corridor.multisegment import LinePlan
from repro.errors import ConfigurationError, GeometryError
from repro.traffic.timetable import Timetable
from repro.traffic.trains import Train, TrafficParams

__all__ = ["SpeedClass", "SPEED_CLASSES", "DemandProfile", "NetworkSegment",
           "Corridor", "NetworkGraph"]


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
        if self.trains_per_hour < 0:
            raise ConfigurationError(
                f"trains/h must be >= 0, got {self.trains_per_hour}")
        if not 0 <= self.night_quiet_hours <= 24:
            raise ConfigurationError(
                f"night quiet hours must be within [0, 24], "
                f"got {self.night_quiet_hours}")
        if self.train_length_m <= 0:
            raise ConfigurationError(
                f"train length must be positive, got {self.train_length_m}")

    @property
    def headway_s(self) -> float:
        """Mean time between trains during service hours (inf when idle)."""
        if self.trains_per_hour == 0:
            return float("inf")
        return 3600.0 / self.trains_per_hour

    def scaled(self, factor: float) -> "DemandProfile":
        """The same profile with ``trains_per_hour`` scaled by ``factor``."""
        if factor < 0:
            raise ConfigurationError(f"demand factor must be >= 0, got {factor}")
        return replace(self, trains_per_hour=self.trains_per_hour * factor)

    def traffic(self, speed_kmh: float = constants.TRAIN_SPEED_KMH) -> TrafficParams:
        """The :class:`TrafficParams` this demand implies at a cruise speed."""
        return TrafficParams(
            trains_per_hour=self.trains_per_hour,
            night_quiet_hours=self.night_quiet_hours,
            train=Train(length_m=self.train_length_m, speed_kmh=speed_kmh))

    @classmethod
    def from_timetable(cls, timetable: Timetable) -> "DemandProfile":
        """Derive a demand profile from a concrete timetable.

        The timetable's horizon is read as the daily service window (capped
        at 24 h); the run count over that window gives trains/h and the
        longest scheduled train sets the occupancy-relevant length.

        Args:
            timetable: A :class:`repro.traffic.timetable.Timetable` with at
                least one run.

        Returns:
            The equivalent average-rate :class:`DemandProfile`.

        Raises:
            ConfigurationError: For an empty timetable.
        """
        if not timetable.runs:
            raise ConfigurationError(
                "cannot derive a demand profile from an empty timetable")
        service_hours = min(24.0, timetable.horizon_s / 3600.0)
        return cls(
            trains_per_hour=len(timetable.runs) / service_hours,
            night_quiet_hours=24.0 - service_hours,
            train_length_m=max(run.train.length_m for run in timetable.runs))


@dataclass(frozen=True)
class NetworkSegment:
    """One homogeneous stretch of a corridor: length, speed class, demand."""

    name: str
    length_km: float
    speed_class: str = "highspeed"
    demand: DemandProfile = field(default_factory=DemandProfile)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a segment needs a non-empty name")
        if self.length_km <= 0:
            raise GeometryError(
                f"{self.name}: segment length must be positive, "
                f"got {self.length_km}")
        if self.speed_class not in SPEED_CLASSES:
            raise ConfigurationError(
                f"{self.name}: unknown speed class {self.speed_class!r}; "
                f"available: {sorted(SPEED_CLASSES)}")

    @property
    def train_speed_kmh(self) -> float:
        """Cruise speed implied by the segment's speed class."""
        return SPEED_CLASSES[self.speed_class].train_speed_kmh

    def traffic(self) -> TrafficParams:
        """The segment's demand at its class speed."""
        return self.demand.traffic(self.train_speed_kmh)


@dataclass(frozen=True)
class Corridor:
    """A named line: an ordered tuple of segments with unique names."""

    name: str
    segments: tuple[NetworkSegment, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a corridor needs a non-empty name")
        if not self.segments:
            raise ConfigurationError(
                f"corridor {self.name!r} needs at least one segment")
        names = [s.name for s in self.segments]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"corridor {self.name!r} has duplicate segment names")

    @property
    def length_km(self) -> float:
        """Total corridor length."""
        return sum(s.length_km for s in self.segments)


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

    ``NetworkGraph(corridors=...)`` derives the columns from the objects
    and keeps them.  :meth:`from_columns` takes the columns directly and
    builds :attr:`corridors` / :attr:`segments` only on first access.  Both
    validate the columns the same way.
    """

    def __init__(self, corridors: tuple[Corridor, ...]) -> None:
        corridors = tuple(corridors)
        segments = tuple(s for c in corridors for s in c.segments)
        speed_classes: dict[str, int] = {}
        demands: dict[DemandProfile, int] = {}
        speed_index = [speed_classes.setdefault(s.speed_class,
                                                len(speed_classes))
                       for s in segments]
        demand_index = [demands.setdefault(s.demand, len(demands))
                        for s in segments]
        self._set_columns(
            tuple(c.name for c in corridors),
            [len(c.segments) for c in corridors],
            tuple(s.name for s in segments),
            [s.length_km for s in segments],
            tuple(speed_classes), speed_index, tuple(demands), demand_index)
        # The caller's objects are the graph's objects: nothing to rebuild.
        vars(self).update(corridors=corridors, segments=segments)

    @classmethod
    def from_columns(cls, corridor_names: tuple[str, ...],
                     corridor_sizes, local_names: tuple[str, ...],
                     segment_length_km, speed_classes: tuple[str, ...],
                     speed_index, demands: tuple[DemandProfile, ...],
                     demand_index) -> "NetworkGraph":
        """Build a graph from its segment columns, without segment objects.

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

        Returns:
            The validated graph; :attr:`corridors` and :attr:`segments`
            are built from the columns on first access.

        Raises:
            GeometryError: For a segment length <= 0.
            ConfigurationError: For an unknown speed class, an empty or
                duplicate name, an empty corridor or mismatched columns.
        """
        graph = cls.__new__(cls)
        graph._set_columns(corridor_names, corridor_sizes, local_names,
                           segment_length_km, speed_classes, speed_index,
                           demands, demand_index)
        return graph

    def _set_columns(self, corridor_names, corridor_sizes, local_names,
                     segment_length_km, speed_classes, speed_index, demands,
                     demand_index) -> None:
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
        bad = np.flatnonzero(self.segment_length_km <= 0)
        if bad.size:
            i = bad[0]
            raise GeometryError(
                f"{local[i]}: segment length must be positive, "
                f"got {float(self.segment_length_km[i])}")
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
    def segments(self) -> tuple[NetworkSegment, ...]:
        """Every segment, flattened in canonical (corridor, segment) order."""
        classes = self.speed_classes
        demands = self.demands
        return tuple(
            NetworkSegment(name=name, length_km=length,
                           speed_class=classes[speed], demand=demands[demand])
            for name, length, speed, demand in zip(
                self.local_names, self.segment_length_km.tolist(),
                self.speed_index.tolist(), self.demand_index.tolist()))

    @functools.cached_property
    def corridors(self) -> tuple[Corridor, ...]:
        """The corridors, each holding its slice of :attr:`segments`."""
        segments = self.segments
        return tuple(Corridor(name=name, segments=segments[start:stop])
                     for name, start, stop in self._corridor_bounds())

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

        Summed with Python ``sum`` per corridor, then across corridors — the
        order :attr:`Corridor.length_km` uses, so the total is bit-identical
        to summing the corridor objects on every interpreter version.
        """
        lengths = self.segment_length_km.tolist()
        return sum(sum(lengths[start:stop])
                   for _, start, stop in self._corridor_bounds())

    @classmethod
    def from_line_plan(cls, plan: LinePlan, name: str = "line",
                       demand: DemandProfile | None = None,
                       speed_class: str = "highspeed") -> "NetworkGraph":
        """Lift a :class:`LinePlan` into a single-corridor graph.

        One network segment per line section, in section order.  With the
        default demand and speed class the fixed-technology evaluation
        (:func:`repro.network.frontier.fixed_options_power_w` over the
        sections' layouts and modes) reproduces
        :meth:`LinePlan.total_average_power_w` exactly — the line plan is
        the single-corridor special case of the network model.
        """
        demand = demand or DemandProfile()
        return cls(corridors=(Corridor(
            name=name,
            segments=tuple(
                NetworkSegment(name=s.name, length_km=s.length_km,
                               speed_class=speed_class, demand=demand)
                for s in plan.sections)),))


def _column(values, dtype) -> np.ndarray:
    """A read-only array copy: graphs are memoized and shared, never mutated."""
    column = np.array(values, dtype=dtype)
    column.setflags(write=False)
    return column
