"""Deterministic named network graphs for studies and benchmarks.

The builders are pure index arithmetic — no RNG — so the same
``(name, n_segments, demand_scale)`` triple always yields the identical
graph, which keeps study cases CRN-safe and shard-layout independent
without shipping multi-megabyte topology files.  ``national`` at its
default 10 000 segments is the workload the ``network`` study engine and
``benchmarks/bench_network.py`` exercise.  The segments are computed as
the :class:`NetworkGraph` columns, by numpy index arithmetic.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from repro.errors import ConfigurationError
from repro.network.graph import DemandProfile, NetworkGraph

__all__ = ["NAMED_GRAPHS", "build_graph"]

#: Named graph builders with their default segment counts.
NAMED_GRAPHS: dict[str, int] = {"demo": 48, "national": 10_000}

# Per-corridor demand tiers: (trains/h, night quiet hours).  Tier 0 is a
# quiet branch line, tier 3 a dense mainline whose 300 s headway rule
# flips under a 2x demand scale — the contrast the optimizer's sleep
# policy and the monotonicity properties exercise.
_DEMAND_TIERS = ((2.0, 7.0), (4.0, 6.0), (8.0, 5.0), (12.0, 4.0))

#: Speed-class table of the preset graphs, indexed by their
#: ``speed_index`` column.
_SPEED_CLASSES = ("station", "regional", "highspeed")


def build_graph(name: str, n_segments: int | None = None,
                demand_scale: float = 1.0) -> NetworkGraph:
    """Build a named deterministic graph.

    Graphs are frozen, so repeated calls that resolve to the same graph
    return one memoized instance (a study's technology-mix axis shares it),
    however the size is spelled: omitted, ``0`` or the named default,
    positional or keyword.

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
    return _build_graph(name, total, float(demand_scale))


@functools.lru_cache(maxsize=4)
def _build_graph(name: str, total: int, demand_scale: float) -> NetworkGraph:
    """The graph of resolved arguments, as columns by index arithmetic.

    Segment ``i`` of corridor ``c`` is a 1 km station every 16th segment,
    else regional when ``(c + i) % 3 == 0``, else highspeed; the regional
    and highspeed lengths cycle in 0.1 km steps.
    """
    n_corridors = 4 if name == "demo" else max(1, total // 400)
    base, extra = divmod(total, n_corridors)
    if base == 0:
        n_corridors, base, extra = total, 1, 0
    sizes = base + (np.arange(n_corridors) < extra)
    starts = np.cumsum(sizes) - sizes
    c = np.repeat(np.arange(n_corridors), sizes)
    i = np.arange(total) - np.repeat(starts, sizes)

    station = i % 16 == 0
    regional = ~station & ((c + i) % 3 == 0)
    length_km = np.where(
        station, 1.0,
        np.where(regional, 1.5 + 0.1 * ((3 * i + c) % 12),
                 2.0 + 0.1 * ((5 * i + 2 * c) % 15)))
    speed_index = np.where(station, 0, np.where(regional, 1, 2))

    # One profile per tier in use; the demand table lists distinct values.
    tiers = [DemandProfile(trains_per_hour=tph,
                           night_quiet_hours=quiet).scaled(demand_scale)
             for tph, quiet in _DEMAND_TIERS[:n_corridors]]
    demands = tuple(dict.fromkeys(tiers))
    tier_index = np.array([demands.index(tier) for tier in tiers])

    names = [f"s{k:04d}" for k in range(base + (extra > 0))]
    return NetworkGraph(
        corridor_names=tuple(f"c{k:02d}" for k in range(n_corridors)),
        corridor_sizes=sizes,
        local_names=tuple(itertools.chain.from_iterable(
            names[:size] for size in sizes.tolist())),
        segment_length_km=length_km,
        speed_classes=_SPEED_CLASSES,
        speed_index=speed_index,
        demands=demands,
        demand_index=tier_index[c % len(_DEMAND_TIERS)])
