"""Vectorized corridor day-simulation engine.

A scalar event engine (kept as the test oracle ``tests/oracles/des``) walks
one timetable realization at a time through an event queue.  This module
replaces the per-event walk with **interval-overlap algebra**: each element's
active time is the measure of the union of train-passage intervals over its
coverage section, computed on stacked ``[realization, element, run]``
tensors, so hundreds of seeded Poisson-timetable days evaluate in one pass.

How the event semantics map onto interval algebra
-------------------------------------------------

Per (realization, element) lane the event engine's trajectory is determined
by three facts:

* the unit draws ``no_load_w`` during both WAKING and NO_LOAD, so energy only
  depends on the *awake* measure (time not asleep) and the *full-load*
  measure;
* occupancy is the union of the per-run ``[enter, exit)`` intervals over the
  element's section — merged into disjoint *groups* with a cumulative-max
  scan;
* the unit sleeps exactly at a group end that falls strictly after the
  current wake transition finishes, and re-wakes at the earlier of the next
  barrier wake event and the next group start (a late wake).  Full load is
  occupancy minus the per-cycle waking windows.

Event times are computed with the same floating-point expressions as
:meth:`repro.traffic.timetable.TrainRun.interval_over` and the event
engine's photoelectric barriers, so both engines see bit-identical event
instants; the derived measures and energies
agree to ~1e-9 (they only differ by floating-point summation order).  Exact
event *ties* (two events at the same float instant on one element) follow the
event queue's scheduling order in the event engine and the documented
half-open convention here — they do not occur on non-degenerate timetables.

The batch engine runs in two stages.  The **occupancy stage**
(:func:`occupancy_stage`) reads only the element sections, the fleet, the
transition time, the wake lead and the horizon; it returns per lane the
awake and waking-occupied seconds an always-sleep-capable unit would have,
plus the total occupied seconds.  The **power stage** (:func:`power_stage`)
applies one policy's ``sleep_capable`` flags and watts.  So every policy over
one geometry and fleet shares one occupancy pass, and passes that share a
transition time and horizon share one kernel scan (the study ``sim``
adapter batches on exactly this).

The event oracle replays the same timetables through its event queue (one
simulator per realization) and returns the same per-element structure; the
cross-engine parity tests and ``benchmarks/bench_sim_batch.py`` compare
against it.  Stochastic fleets use
the common-random-number seeding of
:func:`repro.traffic.timetable.day_timetables` (``default_rng([seed, r])``,
matching :mod:`repro.optimize.mc`), so realization ``r`` is the same Poisson
day for every layout/policy sharing a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro import constants
from repro.corridor.layout import CorridorLayout
from repro.energy.duty import EnergyParams
from repro.energy.scenario import OperatingMode
from repro.errors import ConfigurationError
from repro.kernels import occupancy_scan
from repro.optimize.mc import readonly_array
from repro.simulation.elements import ElementSpec, corridor_elements
from repro.traffic.timetable import Timetable, day_timetables, generate_timetable

__all__ = ["DayBatchResult", "Occupancy", "occupancy_stage", "pack_runs",
           "power_stage", "simulate_days"]


@dataclass(frozen=True, eq=False)
class DayBatchResult:
    """Stacked outcome of a fleet of simulated days.

    ``active_s`` / ``awake_s`` / ``energy_wh`` are ``[realization, element]``
    arrays (read-only): seconds at full load, seconds not asleep, and energy.
    Element order matches :func:`repro.simulation.elements.corridor_elements`.
    """

    layout: CorridorLayout
    mode: OperatingMode
    horizon_s: float
    element_names: tuple[str, ...]
    element_kinds: tuple[str, ...]
    active_s: np.ndarray
    awake_s: np.ndarray
    energy_wh: np.ndarray

    def __post_init__(self) -> None:
        for name in ("active_s", "awake_s", "energy_wh"):
            object.__setattr__(self, name, readonly_array(getattr(self, name)))

    @property
    def realizations(self) -> int:
        return self.active_s.shape[0]

    def _kind_wh(self, kind: str) -> np.ndarray:
        mask = np.array([k == kind for k in self.element_kinds])
        return self.energy_wh[:, mask].sum(axis=1)

    @property
    def hp_wh(self) -> np.ndarray:
        return self._kind_wh("hp")

    @property
    def service_wh(self) -> np.ndarray:
        return self._kind_wh("service")

    @property
    def donor_wh(self) -> np.ndarray:
        return self._kind_wh("donor")

    @property
    def total_mains_wh(self) -> np.ndarray:
        """Per-realization mains energy (SOLAR powers the LP nodes off-grid)."""
        if self.mode is OperatingMode.SOLAR:
            return self.hp_wh
        return self.hp_wh + self.service_wh + self.donor_wh

    @property
    def avg_w_per_km(self) -> np.ndarray:
        """Per-realization average mains power per km (the Fig. 4 quantity)."""
        hours = self.horizon_s / 3600.0
        return self.total_mains_wh / hours / (self.layout.isd_m / 1000.0)

    def mean_w_per_km(self) -> float:
        """Fleet-mean average mains power per km (the Fig. 4 quantity)."""
        return float(np.mean(self.avg_w_per_km))

    def std_w_per_km(self) -> float:
        """Sample standard deviation across realizations (0 for one day)."""
        values = self.avg_w_per_km
        if values.size < 2:
            return 0.0
        return float(np.std(values, ddof=1))

    def ci95_w_per_km(self) -> tuple[float, float]:
        """Normal-approximation 95% CI of the mean W/km across realizations."""
        mean = self.mean_w_per_km()
        half = 1.959963984540054 * self.std_w_per_km() / np.sqrt(self.realizations)
        return float(mean - half), float(mean + half)


# -- input assembly --------------------------------------------------------------


def _resolve_timetables(params: EnergyParams, timetables, realizations,
                        stochastic: bool, seed: int,
                        days: float) -> tuple[Timetable, ...]:
    if timetables is not None:
        resolved = tuple(timetables)
        if realizations is not None and realizations != len(resolved):
            raise ConfigurationError(
                "pass either explicit timetables or a realization count, "
                "not a conflicting pair")
    elif stochastic:
        resolved = day_timetables(params.traffic,
                                  realizations=1 if realizations is None else realizations,
                                  seed=seed, days=days)
    else:
        base = generate_timetable(params.traffic, days=days)
        resolved = (base,) * (1 if realizations is None else max(1, realizations))
    if not resolved:
        raise ConfigurationError("need at least one timetable realization")
    horizons = {tt.horizon_s for tt in resolved}
    if len(horizons) != 1:
        raise ConfigurationError(
            f"all realizations must share one horizon, got {sorted(horizons)}")
    if next(iter(horizons)) <= 0:
        raise ConfigurationError("timetable horizon must be positive")
    return resolved


def pack_runs(timetables: tuple[Timetable, ...]) -> tuple[np.ndarray, ...]:
    """Pack a fleet into padded ``[realization, run]`` arrays.

    Returns ``(t0, speed, length, direction, valid)``; padding slots are
    ``valid == False``.  A fleet shared by many passes is packed once.
    """
    n_max = max(len(tt) for tt in timetables)
    shape = (len(timetables), max(n_max, 1))
    t0 = np.zeros(shape)
    speed = np.ones(shape)
    length = np.zeros(shape)
    direction = np.ones(shape)
    valid = np.zeros(shape, dtype=bool)
    for r, tt in enumerate(timetables):
        n = len(tt)
        t0[r, :n] = [run.t0_s for run in tt]
        speed[r, :n] = [run.train.speed_ms for run in tt]
        length[r, :n] = [run.train.length_m for run in tt]
        direction[r, :n] = [run.direction for run in tt]
        valid[r, :n] = True
    return t0, speed, length, direction, valid


# -- stage 1: occupancy ----------------------------------------------------------


class Occupancy(NamedTuple):
    """Per-lane outcome of one occupancy pass, lanes in ``[realization,
    element]`` order: seconds awake and occupied-while-waking if every
    element could sleep, and total occupied seconds."""

    awake_time: np.ndarray
    waking_occ: np.ndarray
    occ_total: np.ndarray


def _interval_groups(specs: tuple[ElementSpec, ...], runs: tuple[np.ndarray, ...],
                     seg_m: float, horizon_s: float, wake_lead_m: float,
                     g_a: np.ndarray, g_b: np.ndarray,
                     first_wake_after: np.ndarray):
    """Interval algebra of one pass, at the fleet's own run width.

    Writes the pass's occupancy groups into its rows of the stacked scan
    inputs ``g_a`` / ``g_b`` / ``first_wake_after`` (``+inf`` filled;
    columns past the pass's width stay ``+inf``) and returns ``(n_groups,
    occ_total)`` per lane.  Temporaries are dropped as soon as they are
    used, so a stacked call holds one pass's working set at a time.
    """
    t0, speed, length, direction, valid = runs
    n_real, n_runs = t0.shape
    n_elem = len(specs)
    lanes = n_real * n_elem
    g_a, g_b = g_a[:, :n_runs], g_b[:, :n_runs]

    start = np.array([s.section_start_m for s in specs])[None, :, None]
    end = np.array([s.section_end_m for s in specs])[None, :, None]
    seg = seg_m

    t0 = t0[:, None, :]
    v = speed[:, None, :]
    length3 = length[:, None, :]
    d = direction[:, None, :]
    valid3 = np.broadcast_to(valid[:, None, :], (n_real, n_elem, n_runs))

    # Same float expressions as TrainRun.interval_over / events_for, so event
    # instants are bit-identical across engines.
    enter = t0 + np.where(d == 1, start, seg - end) / v
    exit_ = t0 + np.where(d == 1, end + length3, (seg - start) + length3) / v
    wake = enter - wake_lead_m / v

    alive = valid3 & (exit_ > 0.0) & (wake < horizon_s)

    # Clip at t = 0 in place (the same ufunc, so the same bits).
    for instants in (enter, exit_, wake):
        np.maximum(0.0, instants, out=instants)

    occupied = alive & (enter <= horizon_s)
    a = np.where(occupied, enter, np.inf).reshape(lanes, n_runs)
    b = np.where(occupied, np.minimum(exit_, horizon_s), np.inf).reshape(lanes, n_runs)
    wk = np.sort(np.where(alive, wake, np.inf).reshape(lanes, n_runs), axis=1)
    del enter, exit_, wake, alive, occupied

    # Merge per-lane [enter, exit) intervals into disjoint occupancy groups.
    order = np.argsort(a, axis=1, kind="stable")
    a_s = np.take_along_axis(a, order, axis=1)
    cummax_b = np.maximum.accumulate(np.take_along_axis(b, order, axis=1),
                                     axis=1)
    del a, b, order
    new_group = np.ones((lanes, n_runs), dtype=bool)
    # Touching intervals (next enter == previous exit) do NOT merge: the event
    # queue fires the earlier run's exit first, so the unit sleeps and takes a
    # late wake (a measure-zero convention on real timetables).
    new_group[:, 1:] = a_s[:, 1:] >= cummax_b[:, :-1]
    finite = a_s < np.inf
    gid = np.cumsum(new_group, axis=1) - 1

    lane_idx = np.broadcast_to(np.arange(lanes)[:, None], (lanes, n_runs))
    first = new_group & finite
    g_a[lane_idx[first], gid[first]] = a_s[first]
    is_last = np.ones((lanes, n_runs), dtype=bool)
    is_last[:, :-1] = new_group[:, 1:]
    last = is_last & finite
    g_b[lane_idx[last], gid[last]] = cummax_b[last]
    n_groups = np.where(finite, gid + 1, 0).max(axis=1)
    del a_s, cummax_b, new_group, finite, gid, first, is_last, last

    # Row sums at the pass's own width: numpy's pairwise summation regroups
    # when a row gains padded zeros, so padding here could change bits.
    has_group = g_a < np.inf
    occ_total = (np.where(has_group, g_b, 0.0)
                 - np.where(has_group, g_a, 0.0)).sum(axis=1)

    # First barrier wake strictly after each candidate sleep time.  Queries
    # are (sentinel -1, group end 0, group end 1, ...); both sides are sorted,
    # so one stable argsort of the concatenation yields every rank at once.
    combined = np.concatenate([wk, np.full((lanes, 1), -1.0), g_b], axis=1)
    ranks = np.empty_like(combined, dtype=np.int64)
    np.put_along_axis(
        ranks, np.argsort(combined, axis=1, kind="stable"),
        np.broadcast_to(np.arange(combined.shape[1]), combined.shape), axis=1)
    del combined
    count_le = ranks[:, n_runs:] - np.arange(n_runs + 1)
    del ranks
    wk_ext = np.concatenate([wk, np.full((lanes, 1), np.inf)], axis=1)
    first_wake_after[:, :n_runs + 1] = np.take_along_axis(wk_ext, count_le,
                                                          axis=1)
    return n_groups, occ_total


def occupancy_stage(passes, transition_s: float,
                    horizon_s: float) -> list[Occupancy]:
    """Occupancy of several passes that share a transition time and horizon.

    A pass is ``(specs, runs, seg_m, wake_lead_m)``: the element sections
    (``specs``; only their coverage sections are read), a fleet packed by
    :func:`pack_runs`, the segment length and the barrier wake lead.  Each
    pass runs its own interval algebra at its own run width; then every
    pass's lanes go through **one** :func:`repro.kernels.occupancy_scan`
    call, with narrower passes padded by ``+inf`` group columns (an
    inactive column adds ``+0.0``, so padding is exact).  Policy does not
    enter here — see :func:`power_stage`.

    Args:
        passes: Sequence of ``(specs, runs, seg_m, wake_lead_m)`` tuples.
        transition_s: Sleep/wake transition time [s], shared by all passes.
        horizon_s: Fleet horizon [s], shared by all passes.

    Returns:
        One :class:`Occupancy` per pass, in input order.
    """
    # Each pass writes its rows of the stacked scan inputs directly.
    lanes = [runs[0].shape[0] * len(specs) for specs, runs, _, _ in passes]
    bounds = np.cumsum([0, *lanes])
    width = max(runs[0].shape[1] for _, runs, _, _ in passes)
    g_a = np.full((bounds[-1], width), np.inf)
    g_b = np.full((bounds[-1], width), np.inf)
    first_wake_after = np.full((bounds[-1], width + 1), np.inf)
    n_groups = np.zeros(bounds[-1], dtype=np.int64)
    occ_totals = []
    for lo, hi, (specs, runs, seg_m, wake_lead_m) in zip(
            bounds[:-1], bounds[1:], passes):
        n_groups[lo:hi], occ_total = _interval_groups(
            specs, runs, seg_m, horizon_s, wake_lead_m,
            g_a[lo:hi], g_b[lo:hi], first_wake_after[lo:hi])
        occ_totals.append(occ_total)
    awake_time, waking_occ = occupancy_scan(
        g_a, g_b, first_wake_after, n_groups, transition_s, horizon_s)
    return [Occupancy(awake_time[lo:hi], waking_occ[lo:hi], occ_total)
            for lo, hi, occ_total in zip(bounds[:-1], bounds[1:], occ_totals)]


# -- stage 2: power --------------------------------------------------------------


def power_stage(layout: CorridorLayout, mode: OperatingMode,
                specs: tuple[ElementSpec, ...], horizon_s: float,
                occupancy: Occupancy) -> DayBatchResult:
    """Apply one policy's sleep capability and watts to an occupancy pass.

    ``specs`` are :func:`corridor_elements` of ``layout`` under ``mode``
    (the sections the pass was computed on; the policy only changes
    ``sleep_capable`` and the power levels).
    """
    shape = (occupancy.occ_total.shape[0] // len(specs), len(specs))
    awake_time, waking_occ, occ_total = (lane.reshape(shape)
                                         for lane in occupancy)
    capable = np.array([s.sleep_capable for s in specs])
    awake_s = np.where(capable, awake_time, horizon_s)
    active_s = np.where(capable, occ_total - waking_occ, occ_total)

    full_w = np.array([s.full_load_w for s in specs])
    no_load_w = np.array([s.no_load_w for s in specs])
    sleep_w = np.array([s.sleep_w for s in specs])
    energy_j = (sleep_w * (horizon_s - awake_s)
                + no_load_w * (awake_s - active_s)
                + full_w * active_s)

    return DayBatchResult(
        layout=layout, mode=mode, horizon_s=horizon_s,
        element_names=tuple(s.name for s in specs),
        element_kinds=tuple(s.kind for s in specs),
        active_s=active_s, awake_s=awake_s, energy_wh=energy_j / 3600.0)


# -- public entry point ----------------------------------------------------------


def simulate_days(layout: CorridorLayout,
                  mode: OperatingMode = OperatingMode.SLEEP,
                  params: EnergyParams | None = None,
                  timetables=None,
                  realizations: int | None = None,
                  stochastic: bool = False,
                  seed: int = 0,
                  days: float = 1.0,
                  transition_s: float = constants.SLEEP_TRANSITION_S,
                  wake_lead_m: float = 50.0) -> DayBatchResult:
    """Simulate a fleet of corridor days and integrate per-element energy.

    Either pass explicit ``timetables`` (one per realization, sharing one
    horizon) or let the engine generate them: ``stochastic=True`` draws
    ``realizations`` seeded Poisson days under common random numbers
    (:func:`repro.traffic.timetable.day_timetables`), otherwise the
    deterministic Table III timetable is replicated.

    The whole fleet is evaluated as stacked ``[realization, element, run]``
    interval tensors.  The per-element active seconds, awake seconds and
    energies equal the scalar event-queue oracle's to ~1e-9 (asserted in
    ``tests/test_engine_parity.py`` and gated at >= 10x speedup in
    ``benchmarks/bench_sim_batch.py``).

    Args:
        layout: The corridor geometry (one segment).
        mode: Operating policy of the LP nodes.
        params: Energy parameters (paper defaults when ``None``).
        timetables: Explicit day timetables, one per realization (all
            sharing one horizon); mutually exclusive with ``realizations``.
        realizations: Number of generated days when ``timetables`` is None.
        stochastic: Draw seeded Poisson days (``default_rng([seed, r])``)
            instead of replicating the deterministic Table III day.
        seed: Root seed of the stochastic fleet.
        days: Horizon length in days for generated timetables.
        transition_s: Sleep/wake transition time [s].
        wake_lead_m: Wake-up lead distance ahead of an approaching train [m].

    Returns:
        The :class:`DayBatchResult` with read-only ``[realization, element]``
        tensors.

    Raises:
        ConfigurationError: On a negative or non-finite transition/lead,
            or inconsistent timetable horizons.
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

    (occupancy,) = occupancy_stage(
        [(specs, pack_runs(resolved), layout.isd_m, float(wake_lead_m))],
        float(transition_s), horizon)
    return power_stage(layout, mode, specs, horizon, occupancy)
