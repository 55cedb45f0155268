"""Repeater placement optimization (extension beyond the paper).

The paper fixes the repeater field to 200 m spacing centered between the HP
masts.  This module asks whether unequal placement can do better: it maximizes
the worst-case SNR over repeater positions using coordinate descent on the
catenary-mast grid (positions are only installable every 50 m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.corridor.geometry import CatenaryGrid
from repro.corridor.layout import CorridorLayout
from repro.errors import ConfigurationError, GeometryError
from repro.radio.batch import evaluate_scenarios
from repro.radio.link import LinkParams
from repro.scenario.cache import ProfileCache
from repro.scenario.spec import Scenario

__all__ = ["PlacementResult", "optimize_placement"]


@dataclass(frozen=True)
class PlacementResult:
    """Optimized layout and the min-SNR it achieves."""

    layout: CorridorLayout
    min_snr_db: float
    baseline_min_snr_db: float
    iterations: int


def optimize_placement(isd_m: float,
                       n_repeaters: int,
                       link: LinkParams | None = None,
                       grid: CatenaryGrid | None = None,
                       min_spacing_m: float = 50.0,
                       resolution_m: float = 2.0,
                       max_rounds: int = 20,
                       cache: ProfileCache | None = None) -> PlacementResult:
    """Maximize worst-case SNR by moving repeaters between catenary masts.

    Coordinate descent: each round tries moving every node to neighbouring
    grid positions (keeping order and ``min_spacing_m``) and keeps the best
    single move; stops when no move improves the min-SNR.

    Each round's candidate moves are evaluated in one batched-engine call;
    a profile cache (an internal LRU unless ``cache`` is supplied) absorbs
    the many re-visited layouts of the descent.

    Starts from the paper's centered 200 m layout (snapped to the grid).
    """
    if n_repeaters < 1:
        raise ConfigurationError(f"placement needs >= 1 repeater, got {n_repeaters}")
    link = link or LinkParams()
    grid = grid or CatenaryGrid()
    cache = cache or ProfileCache(maxsize=256)

    def _min_snr(layout: CorridorLayout) -> float:
        scenario = Scenario(layout=layout, link=link, resolution_m=resolution_m)
        return evaluate_scenarios([scenario], cache=cache)[0].min_snr_db

    baseline = CorridorLayout.with_uniform_repeaters(isd_m, n_repeaters)
    baseline_snr = _min_snr(baseline)

    positions = list(grid.snap_all(baseline.repeater_positions_m))
    # Snapping can collapse near-boundary nodes; keep them inside the segment.
    positions = [min(max(p, grid.spacing_m), isd_m - grid.spacing_m) for p in positions]
    for i in range(1, len(positions)):
        if positions[i] <= positions[i - 1]:
            positions[i] = positions[i - 1] + grid.spacing_m
    if positions[-1] >= isd_m:
        raise GeometryError(f"{n_repeaters} nodes do not fit the {isd_m} m segment on the grid")

    def feasible(pos: list[float]) -> bool:
        if pos[0] < grid.spacing_m / 2 or pos[-1] > isd_m - grid.spacing_m / 2:
            return False
        return all(b - a >= min_spacing_m - 1e-9 for a, b in zip(pos, pos[1:]))

    current = _min_snr(CorridorLayout(isd_m, tuple(positions)))
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        moves: list[tuple[int, float]] = []  # (index, new position)
        trial_scenarios: list[Scenario] = []
        for i in range(len(positions)):
            for delta in (-grid.spacing_m, grid.spacing_m):
                trial = list(positions)
                trial[i] = trial[i] + delta
                if not feasible(trial):
                    continue
                moves.append((i, trial[i]))
                trial_scenarios.append(Scenario(
                    layout=CorridorLayout(isd_m, tuple(trial)), link=link,
                    resolution_m=resolution_m))
        best_move: tuple[int, float, float] | None = None  # (index, new position, snr)
        profiles = evaluate_scenarios(trial_scenarios, cache=cache)
        for (i, new_pos), profile in zip(moves, profiles):
            snr = profile.min_snr_db
            if snr > current + 1e-9 and (best_move is None or snr > best_move[2]):
                best_move = (i, new_pos, snr)
        if best_move is None:
            break
        positions[best_move[0]] = best_move[1]
        current = best_move[2]

    layout = CorridorLayout(isd_m, tuple(positions))
    return PlacementResult(layout=layout, min_snr_db=current,
                           baseline_min_snr_db=baseline_snr, iterations=rounds)
