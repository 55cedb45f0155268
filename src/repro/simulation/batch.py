"""Vectorized corridor day-simulation engine.

The event engine (:mod:`repro.simulation.corridor_sim`) walks one timetable
realization at a time through a scalar event queue.  This module replaces the
per-event walk with **interval-overlap algebra**: each element's active time
is the measure of the union of train-passage intervals over its coverage
section, computed on stacked ``[realization, element, run]`` tensors, so
hundreds of seeded Poisson-timetable days evaluate in one pass.

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
:meth:`repro.traffic.timetable.TrainRun.interval_over` /
:meth:`repro.simulation.detectors.PhotoelectricBarrier.events_for`, so both
engines see bit-identical event instants; the derived measures and energies
agree to ~1e-9 (they only differ by floating-point summation order).  Exact
event *ties* (two events at the same float instant on one element) follow the
event queue's scheduling order in the event engine and the documented
half-open convention here — they do not occur on non-degenerate timetables.

``engine="event"`` replays the same timetables through the event queue (one
:class:`~repro.simulation.engine.Simulator` per realization) and returns the
same per-element structure — the escape hatch the cross-engine parity tests
and ``benchmarks/bench_sim_batch.py`` compare against.  Stochastic fleets use
the common-random-number seeding of
:func:`repro.traffic.timetable.day_timetables` (``default_rng([seed, r])``,
matching :mod:`repro.optimize.mc`), so realization ``r`` is the same Poisson
day for every layout/policy sharing a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

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

__all__ = ["DayBatchResult", "simulate_days"]

_ENGINES = ("batch", "event")


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
    events_processed: np.ndarray
    engine: str

    def __post_init__(self) -> None:
        for name in ("active_s", "awake_s", "energy_wh", "events_processed"):
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


def _resolve_timetables(params: EnergyParams, layout: CorridorLayout,
                        timetables, realizations, stochastic: bool,
                        seed: int, days: float) -> tuple[Timetable, ...]:
    if timetables is not None:
        resolved = tuple(timetables)
        if realizations is not None and realizations != len(resolved):
            raise ConfigurationError(
                "pass either explicit timetables or a realization count, "
                "not a conflicting pair")
    elif stochastic:
        resolved = day_timetables(params.traffic,
                                  realizations=1 if realizations is None else realizations,
                                  seed=seed, days=days,
                                  segment_length_m=layout.isd_m)
    else:
        base = generate_timetable(params.traffic, days=days,
                                  segment_length_m=layout.isd_m)
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


def _run_tensors(timetables: tuple[Timetable, ...]):
    """Pack the fleet into padded [realization, run] arrays."""
    n_max = max(len(tt) for tt in timetables)
    shape = (len(timetables), max(n_max, 1))
    t0 = np.zeros(shape)
    speed = np.ones(shape)
    length = np.zeros(shape)
    direction = np.ones(shape)
    valid = np.zeros(shape, dtype=bool)
    for r, tt in enumerate(timetables):
        for n, run in enumerate(tt):
            t0[r, n] = run.t0_s
            speed[r, n] = run.train.speed_ms
            length[r, n] = run.train.length_m
            direction[r, n] = run.direction
            valid[r, n] = True
    return t0, speed, length, direction, valid


# -- the batched kernel ----------------------------------------------------------


def _simulate_batch(specs: tuple[ElementSpec, ...],
                    timetables: tuple[Timetable, ...],
                    seg_m: float, horizon_s: float, transition_s: float,
                    wake_lead_m: float, backend: str | None = None):
    n_real, n_elem = len(timetables), len(specs)
    t0, speed, length, direction, valid = _run_tensors(timetables)
    n_runs = t0.shape[1]

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

    enter_c = np.maximum(0.0, enter)
    exit_c = np.maximum(0.0, exit_)
    wake_c = np.maximum(0.0, wake)

    lanes = n_real * n_elem
    occupied = alive & (enter_c <= horizon_s)
    a = np.where(occupied, enter_c, np.inf).reshape(lanes, n_runs)
    b = np.where(occupied, np.minimum(exit_c, horizon_s), np.inf).reshape(lanes, n_runs)

    # Merge per-lane [enter, exit) intervals into disjoint occupancy groups.
    order = np.argsort(a, axis=1, kind="stable")
    a_s = np.take_along_axis(a, order, axis=1)
    b_s = np.take_along_axis(b, order, axis=1)
    cummax_b = np.maximum.accumulate(b_s, axis=1)
    new_group = np.ones((lanes, n_runs), dtype=bool)
    # Touching intervals (next enter == previous exit) do NOT merge: the event
    # queue fires the earlier run's exit first, so the unit sleeps and takes a
    # late wake (a measure-zero convention on real timetables).
    new_group[:, 1:] = a_s[:, 1:] >= cummax_b[:, :-1]
    finite = a_s < np.inf
    gid = np.cumsum(new_group, axis=1) - 1

    g_a = np.full((lanes, n_runs), np.inf)
    g_b = np.full((lanes, n_runs), np.inf)
    lane_idx = np.broadcast_to(np.arange(lanes)[:, None], (lanes, n_runs))
    first = new_group & finite
    g_a[lane_idx[first], gid[first]] = a_s[first]
    is_last = np.ones((lanes, n_runs), dtype=bool)
    is_last[:, :-1] = new_group[:, 1:]
    last = is_last & finite
    g_b[lane_idx[last], gid[last]] = cummax_b[last]
    n_groups = np.where(finite, gid + 1, 0).max(axis=1)

    has_group = g_a < np.inf
    occ_total = (np.where(has_group, g_b, 0.0)
                 - np.where(has_group, g_a, 0.0)).sum(axis=1)

    # First barrier wake strictly after each candidate sleep time.  Queries
    # are (sentinel -1, group end 0, group end 1, ...); both sides are sorted,
    # so one stable argsort of the concatenation yields every rank at once.
    wk = np.sort(np.where(alive, wake_c, np.inf).reshape(lanes, n_runs), axis=1)
    queries = np.concatenate([np.full((lanes, 1), -1.0), g_b], axis=1)
    combined = np.concatenate([wk, queries], axis=1)
    ranks = np.empty_like(combined, dtype=np.int64)
    np.put_along_axis(
        ranks, np.argsort(combined, axis=1, kind="stable"),
        np.broadcast_to(np.arange(combined.shape[1]), combined.shape), axis=1)
    count_le = ranks[:, n_runs:] - np.arange(n_runs + 1)
    wk_ext = np.concatenate([wk, np.full((lanes, 1), np.inf)], axis=1)
    first_wake_after = np.take_along_axis(wk_ext, count_le, axis=1)

    # Sequential scan over occupancy groups (the only loop), delegated to
    # the :func:`repro.kernels.occupancy_scan` kernel: track the open wake
    # cycle per lane.  A cycle opens at min(next wake, group start),
    # finishes waking transition_s later, and closes at the first group end
    # strictly after the finish (the unit stays awake through group ends that
    # land inside the transition — the event engine's "missed sleep" case).
    awake_time, waking_occ = occupancy_scan(
        g_a, g_b, first_wake_after, n_groups, transition_s, horizon_s,
        backend=backend)

    capable = np.array([s.sleep_capable for s in specs])
    capable_l = np.broadcast_to(capable[None, :], (n_real, n_elem)).reshape(lanes)
    awake_s = np.where(capable_l, awake_time, horizon_s)
    active_s = np.where(capable_l, occ_total - waking_occ, occ_total)

    full_w = np.array([s.full_load_w for s in specs])
    no_load_w = np.array([s.no_load_w for s in specs])
    sleep_w = np.array([s.sleep_w for s in specs])
    full_l = np.broadcast_to(full_w[None, :], (n_real, n_elem)).reshape(lanes)
    no_l = np.broadcast_to(no_load_w[None, :], (n_real, n_elem)).reshape(lanes)
    sl_l = np.broadcast_to(sleep_w[None, :], (n_real, n_elem)).reshape(lanes)
    energy_j = (sl_l * (horizon_s - awake_s)
                + no_l * (awake_s - active_s)
                + full_l * active_s)

    shape = (n_real, n_elem)
    return (active_s.reshape(shape), awake_s.reshape(shape),
            (energy_j / 3600.0).reshape(shape),
            np.zeros(n_real, dtype=np.int64))


# -- the event escape hatch ------------------------------------------------------


def _simulate_event(specs: tuple[ElementSpec, ...],
                    timetables: tuple[Timetable, ...],
                    seg_m: float, horizon_s: float, transition_s: float,
                    wake_lead_m: float):
    """Replay the fleet through the scalar event queue, one day at a time.

    Per-state seconds are read back from the recorder's time-at-power
    accounting, which assumes the three power levels of an element are
    pairwise distinct (true for the paper's Table II/III parameters);
    energies are exact regardless.
    """
    from repro.simulation.detectors import PhotoelectricBarrier
    from repro.simulation.engine import Simulator
    from repro.simulation.recorder import EnergyRecorder
    from repro.simulation.statemachine import PowerStateMachine

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
                  wake_lead_m: float = 50.0,
                  engine: str = "batch",
                  backend: str | None = None) -> DayBatchResult:
    """Simulate a fleet of corridor days and integrate per-element energy.

    Either pass explicit ``timetables`` (one per realization, sharing one
    horizon) or let the engine generate them: ``stochastic=True`` draws
    ``realizations`` seeded Poisson days under common random numbers
    (:func:`repro.traffic.timetable.day_timetables`), otherwise the
    deterministic Table III timetable is replicated.

    ``engine="batch"`` (default) evaluates the whole fleet as stacked
    ``[realization, element, run]`` interval tensors; ``engine="event"`` is
    the scalar event-queue escape hatch.  Both return the same per-element
    active seconds, awake seconds and energies (equal to ~1e-9; asserted in
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
        engine: ``"batch"`` (default) or the ``"event"`` escape hatch.
        backend: Kernel backend for the batch engine's group scan
            (``None`` means ``"numpy"``); ignored by ``engine="event"``.

    Returns:
        The :class:`DayBatchResult` with read-only ``[realization, element]``
        tensors.

    Raises:
        ConfigurationError: On an unknown engine, negative transition/lead,
            or inconsistent timetable horizons.
    """
    if engine not in _ENGINES:
        raise ConfigurationError(
            f"engine must be one of {_ENGINES}, got {engine!r}")
    if transition_s < 0:
        raise ConfigurationError(
            f"transition time must be >= 0, got {transition_s}")
    if wake_lead_m < 0:
        raise ConfigurationError(f"wake lead must be >= 0, got {wake_lead_m}")
    params = params or EnergyParams()
    resolved = _resolve_timetables(params, layout, timetables, realizations,
                                   stochastic, seed, days)
    specs = corridor_elements(layout, mode, params)
    horizon = resolved[0].horizon_s

    if engine == "batch":
        active_s, awake_s, energy_wh, events = _simulate_batch(
            specs, resolved, layout.isd_m, horizon,
            float(transition_s), float(wake_lead_m), backend=backend)
    else:
        active_s, awake_s, energy_wh, events = _simulate_event(
            specs, resolved, layout.isd_m, horizon,
            float(transition_s), float(wake_lead_m))

    return DayBatchResult(
        layout=layout, mode=mode, horizon_s=horizon,
        element_names=tuple(s.name for s in specs),
        element_kinds=tuple(s.kind for s in specs),
        active_s=active_s, awake_s=awake_s, energy_wh=energy_wh,
        events_processed=events, engine=engine)
