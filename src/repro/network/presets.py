"""Deterministic named network graphs for studies and benchmarks.

The builders are pure index arithmetic — no RNG — so the same
``(name, n_segments, demand_scale)`` triple always yields the identical
graph, which keeps study cases CRN-safe and shard-layout independent
without shipping multi-megabyte topology files.  ``national`` at its
default 10 000 segments is the workload the ``network`` study engine and
``benchmarks/bench_network.py`` exercise.
"""

from __future__ import annotations

import functools

from repro.errors import ConfigurationError
from repro.network.graph import Corridor, DemandProfile, NetworkGraph, NetworkSegment

__all__ = ["NAMED_GRAPHS", "build_graph"]

#: Named graph builders with their default segment counts.
NAMED_GRAPHS: dict[str, int] = {"demo": 48, "national": 10_000}

# Per-corridor demand tiers: (trains/h, night quiet hours).  Tier 0 is a
# quiet branch line, tier 3 a dense mainline whose 300 s headway rule
# flips under a 2x demand scale — the contrast the optimizer's sleep
# policy and the monotonicity properties exercise.
_DEMAND_TIERS = ((2.0, 7.0), (4.0, 6.0), (8.0, 5.0), (12.0, 4.0))


def _segment(corridor_index: int, segment_index: int,
             demand: DemandProfile) -> NetworkSegment:
    """One deterministic segment: class and length from index arithmetic."""
    c, i = corridor_index, segment_index
    if i % 16 == 0:
        return NetworkSegment(name=f"s{i:04d}", length_km=1.0,
                              speed_class="station", demand=demand)
    if (c + i) % 3 == 0:
        length = 1.5 + 0.1 * ((3 * i + c) % 12)
        return NetworkSegment(name=f"s{i:04d}", length_km=length,
                              speed_class="regional", demand=demand)
    length = 2.0 + 0.1 * ((5 * i + 2 * c) % 15)
    return NetworkSegment(name=f"s{i:04d}", length_km=length,
                          speed_class="highspeed", demand=demand)


@functools.lru_cache(maxsize=4)
def build_graph(name: str, n_segments: int | None = None,
                demand_scale: float = 1.0) -> NetworkGraph:
    """Build a named deterministic graph.

    Graphs are frozen, so repeated calls with the same arguments return
    one memoized instance (a study's technology-mix axis shares it).

    Args:
        name: ``"demo"`` (4 corridors, 48 segments) or ``"national"``
            (~25 corridors, 10 000 segments).
        n_segments: Total segment count; ``None`` (or 0) uses the named
            default.  Segments are distributed round-robin-ish across
            ``max(1, n_segments // 400)`` corridors (``demo``: 4).
        demand_scale: Multiplier applied to every corridor's trains/h —
            the study layer's demand axis.

    Returns:
        The validated :class:`NetworkGraph`.

    Raises:
        ConfigurationError: For an unknown name or non-positive size.
    """
    if name not in NAMED_GRAPHS:
        raise ConfigurationError(
            f"unknown graph {name!r}; available: {sorted(NAMED_GRAPHS)}")
    total = NAMED_GRAPHS[name] if not n_segments else int(n_segments)
    if total <= 0:
        raise ConfigurationError(
            f"segment count must be positive, got {total}")
    n_corridors = 4 if name == "demo" else max(1, total // 400)
    base, extra = divmod(total, n_corridors)
    if base == 0:
        n_corridors, base, extra = total, 1, 0

    corridors = []
    for c in range(n_corridors):
        tph, quiet = _DEMAND_TIERS[c % len(_DEMAND_TIERS)]
        demand = DemandProfile(trains_per_hour=tph,
                               night_quiet_hours=quiet).scaled(demand_scale)
        count = base + (1 if c < extra else 0)
        corridors.append(Corridor(
            name=f"c{c:02d}",
            segments=tuple(_segment(c, i, demand) for i in range(count))))
    return NetworkGraph(corridors=tuple(corridors))
