"""Engine adapters: how a declarative case compiles to a batch engine.

Each adapter names the parameters a study may sweep or fix, the metric
columns it produces, and a ``runner`` that evaluates a chunk of cases through
the corresponding batch engine:

===========  ==================================================  ==========
adapter       engine entry point                                 stochastic
===========  ==================================================  ==========
``radio``     :func:`repro.radio.batch.evaluate_scenarios`       no
``solar``     :func:`repro.solar.batch.simulate_systems`         seeded
``mc``        :func:`repro.optimize.mc.min_snr_matrix`           seeded
``sim``       :func:`repro.simulation.batch.simulate_days`       seeded
``network``   :func:`repro.network.optimize.optimize_network`    no
===========  ==================================================  ==========

Adapters evaluate *whole shards* at once where the engine allows it (radio
stacks every scenario of the shard into one batched call; mc stacks every
(scenario, shadowing) pair of one trial stream into one ``min_snr_matrix``
call, one draw and one kernel call; solar
runs one ``simulate_systems`` pass over all cases; sim runs one occupancy
pass per distinct geometry and fleet, one ``occupancy_scan`` call per
transition time and horizon, and only the power stage per policy), so the
study layer inherits the engines' vectorization instead of falling back to
per-case scalar loops.

Per-process memos (Eq. (2) profiles and weather years per cache directory,
timetable fleets, network frontiers) are ``functools`` caches, so a worker
process, or the service's worker threads, reuse computations across the
shards they execute.  Every engine value is produced by the same code path
a direct engine call uses — a study result is bit-identical to a
hand-written sweep.
"""

from __future__ import annotations

import functools
import importlib
import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping

from repro import constants
from repro.errors import ConfigurationError

__all__ = ["REQUIRED", "EngineAdapter", "STUDY_ENGINES", "run_cases"]


class _Required:
    """Sentinel default for parameters a study must provide."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "REQUIRED"


#: Marks an adapter parameter that has no default.
REQUIRED = _Required()


@dataclass(frozen=True)
class EngineAdapter:
    """Declarative contract of one study engine.

    Attributes
    ----------
    name:
        Adapter id used in the study document's ``engine`` key.
    description:
        One-liner shown by ``repro study list`` and the docs.
    params:
        Mapping of accepted parameter name to default value
        (:data:`REQUIRED` for mandatory parameters).
    metrics:
        Metric column names, in output order.
    runner:
        ``runner(cases, seeds, context) -> list[dict]``: evaluates parameter
        dicts (one per case, defaults already applied) and returns one metric
        dict per case, in order.  ``seeds[i]`` is the engine seed of case
        ``i`` (see :meth:`repro.study.spec.StudySpec.case_seed`); ``context``
        optionally names the disk cache directory (``cache_dir``).
    """

    name: str
    description: str
    params: Mapping[str, object]
    metrics: tuple[str, ...]
    runner: Callable[[list[dict], list[int], dict], list[dict]]

    @property
    def required(self) -> frozenset[str]:
        """Parameter names without defaults."""
        return frozenset(name for name, default in self.params.items()
                         if default is REQUIRED)

    def resolve(self, case: dict) -> dict:
        """Apply parameter defaults to one case dict."""
        resolved = {name: default for name, default in self.params.items()
                    if default is not REQUIRED}
        resolved.update(case)
        return resolved


# One ProfileCache / WeatherCache per worker process and cache directory,
# reused across every shard the worker executes.  Live cache *objects*
# cannot cross a process boundary (they hold locks), so the runner ships
# only the ``cache_dir`` string and workers share state through the disk
# layer.
@functools.cache
def _profile_cache(cache_dir):
    from repro.scenario.cache import ProfileCache

    return ProfileCache(maxsize=256, cache_dir=cache_dir)


def _context_profile_cache(context: dict):
    return _profile_cache(context.get("cache_dir"))


@functools.cache
def _weather_cache(cache_dir):
    from pathlib import Path

    from repro.solar.batch import WeatherCache

    return WeatherCache(maxsize=64, cache_dir=Path(cache_dir) / "weather")


def _context_weather_cache(context: dict):
    """The weather memo of ``context``'s cache directory; ``None`` without
    one, so ``simulate_systems`` uses the solar engine's process default."""
    cache_dir = context.get("cache_dir")
    return None if cache_dir is None else _weather_cache(cache_dir)


# -- radio: deterministic Eq. (2) grids ---------------------------------------


def _radio_scenario(case: dict):
    from repro.corridor.layout import CorridorLayout
    from repro.radio.link import LinkParams
    from repro.scenario.spec import Scenario

    link = LinkParams()
    overrides = {name: case[name] for name in
                 ("hp_eirp_dbm", "lp_eirp_dbm", "terminal_noise_figure_db",
                  "repeater_noise_figure_db")
                 if case[name] is not None}
    if overrides:
        link = replace(link, **{k: float(v) for k, v in overrides.items()})
    layout = CorridorLayout.with_uniform_repeaters(
        float(case["isd_m"]), int(case["n_repeaters"]), float(case["spacing_m"]))
    return Scenario(layout=layout, link=link,
                    resolution_m=float(case["resolution_m"]))


#: Radio parameters that shape the Eq. (2) profile; ``threshold_db`` only
#: judges it, so cases differing in the threshold share one evaluation.
_RADIO_SCENARIO_PARAMS = ("isd_m", "n_repeaters", "spacing_m", "resolution_m",
                          "hp_eirp_dbm", "lp_eirp_dbm",
                          "terminal_noise_figure_db", "repeater_noise_figure_db")


def _scenario_profiles(cases: list[dict], context: dict):
    """One batched profile per distinct scenario of ``cases`` (in
    first-occurrence order) and each case's index into them.  Parameters
    equal under == build equal scenarios (float()/int() of 1, 1.0 and True
    agree), so grouping never changes a row."""
    from repro.radio.batch import evaluate_scenarios

    group_of: dict[tuple, int] = {}
    firsts: list[dict] = []
    groups = []
    for case in cases:
        key = tuple([case[name] for name in _RADIO_SCENARIO_PARAMS])
        group = group_of.get(key)
        if group is None:
            group = group_of[key] = len(firsts)
            firsts.append(case)
        groups.append(group)
    profiles = evaluate_scenarios([_radio_scenario(case) for case in firsts],
                                  cache=_context_profile_cache(context))
    return profiles, groups


def _run_radio(cases: list[dict], seeds: list[int], context: dict) -> list[dict]:
    # One Scenario, profile and min/mean reduction per distinct scenario.
    profiles, groups = _scenario_profiles(cases, context)
    stats = [(profile.min_snr_db, profile.mean_snr_db) for profile in profiles]
    rows = []
    for case, group in zip(cases, groups):
        min_snr, mean_snr = stats[group]
        threshold = float(case["threshold_db"])
        rows.append({
            "min_snr_db": min_snr,
            "mean_snr_db": mean_snr,
            "feasible": int(min_snr >= threshold),
            "margin_db": min_snr - threshold,
        })
    return rows


# -- solar: off-grid PV/battery balance ---------------------------------------


def _run_solar(cases: list[dict], seeds: list[int], context: dict) -> list[dict]:
    from repro.solar.batch import simulate_systems
    from repro.solar.battery import Battery
    from repro.solar.climates import LOCATIONS
    from repro.solar.offgrid import OffGridSystem
    from repro.solar.pv import PvArray

    systems = []
    for case, seed in zip(cases, seeds):
        key = str(case["location"])
        if key not in LOCATIONS:
            raise ConfigurationError(
                f"unknown location {key!r}; available: {sorted(LOCATIONS)}")
        systems.append(OffGridSystem(
            location=LOCATIONS[key],
            pv=PvArray(peak_w=float(case["pv_peak_w"]),
                       performance_ratio=float(case["performance_ratio"])),
            battery=Battery(capacity_wh=float(case["battery_wh"])),
            seed=seed,
        ))
    days = {int(case["days"]) for case in cases}
    if len(days) != 1:
        # simulate_systems shares one horizon; evaluate per unique value.
        rows: list[dict] = [None] * len(cases)  # type: ignore[list-item]
        for value in sorted(days):
            indices = [i for i, case in enumerate(cases)
                       if int(case["days"]) == value]
            sub = _run_solar([cases[i] for i in indices],
                             [seeds[i] for i in indices], context)
            for i, row in zip(indices, sub):
                rows[i] = row
        return rows
    results = simulate_systems(systems, days=days.pop(),
                               weather_cache=_context_weather_cache(context))
    return [{
        "zero_downtime": int(r.zero_downtime),
        "unmet_hours": r.unmet_hours,
        "unmet_wh": r.unmet_wh,
        "min_soc": r.min_soc,
        "full_battery_days_pct": r.full_battery_days_pct,
        "annual_pv_kwh": r.annual_pv_kwh,
        "annual_load_kwh": r.annual_load_kwh,
    } for r in results]


# -- mc: Monte-Carlo shadowing outage -----------------------------------------


def _number(value) -> float:
    """``float(value)``, with NaN for anything that is not a number."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return float("nan")


def _count(name: str, value, minimum: int = 1) -> int:
    """An integer parameter as an int >= ``minimum`` (12.7 is an error, not
    12)."""
    number = _number(value)
    if not (number.is_integer() and number >= minimum):
        raise ConfigurationError(
            f"{name} must be >= {minimum} and a whole number, got {value!r}")
    return int(number)


def _median_rows(matrix):
    """``np.quantile(matrix, 0.5, axis=1)``, bit for bit, without the
    ``np.unique`` call inside it that loads ``numpy.ma`` (about 19 ms).

    numpy's linear method: the virtual index ``(n - 1) / 2`` lies between
    ranks ``lo`` and ``hi`` (both the last rank when ``n == 1``) at weight
    ``g``, the rows are partitioned at the same ranks numpy partitions
    at, and the two order statistics are interpolated with numpy's own
    formula.  A row holding NaN gets the NaN that sorts last in it.
    """
    import numpy as np

    n = matrix.shape[1]
    virtual = n * 0.5 - 0.5
    if virtual >= n - 1:
        lo = hi = -1
    else:
        lo = math.floor(virtual)
        hi = lo + 1
    g = virtual - lo
    part = np.partition(matrix, sorted({-1, 0, lo, hi}), axis=1)
    a, b = part[:, lo], part[:, hi]
    median = b - (b - a) * (1 - g) if g >= 0.5 else a + (b - a) * g
    last = part[:, -1]
    np.copyto(median, last, where=np.isnan(last))
    return median


def _run_mc(cases: list[dict], seeds: list[int], context: dict) -> list[dict]:
    import numpy as np

    from repro.optimize.mc import min_snr_matrix, wilson_interval
    from repro.propagation.fading import LogNormalShadowing

    # One Scenario, hash and profile-cache lookup per distinct scenario, all
    # evaluated in one batch, and one min_snr_matrix call — one draw, one
    # kernel call — per (trials, seed) stream, whose lanes are its distinct
    # (scenario, sigma, decorrelation) pairs in first-occurrence order.
    # Under CRN a lane's row does not depend on the lanes stacked beside it,
    # so each case reads its row, against its own threshold, bit-identical
    # to an outage_matrix call of its own.
    profiles, groups = _scenario_profiles(cases, context)
    streams: dict[tuple, tuple[dict, list]] = {}
    for i, (case, seed, group) in enumerate(zip(cases, seeds, groups)):
        lane = (group, float(case["sigma_db"]), float(case["decorrelation_m"]))
        lanes, members = streams.setdefault(
            (_count("trials", case["trials"]), seed), ({}, []))
        members.append((i, lanes.setdefault(lane, len(lanes))))
    rows: list[dict] = [None] * len(cases)  # type: ignore[list-item]
    for (trials, seed), (lanes, members) in streams.items():
        matrix = min_snr_matrix(
            [profiles[group] for group, _, _ in lanes],
            [LogNormalShadowing(sigma_db=sigma, decorrelation_m=decorrelation)
             for _, sigma, decorrelation in lanes],
            trials, seed)
        index = [lane for _, lane in members]
        thresholds = np.array([float(cases[i]["threshold_db"])
                               for i, _ in members])
        counts = np.count_nonzero(matrix[index] < thresholds[:, None],
                                  axis=1)
        ci_low, ci_high = wilson_interval(counts, trials)
        median = _median_rows(matrix)[index]
        for j, (i, _) in enumerate(members):
            rows[i] = {
                "outage_probability": float(counts[j] / trials),
                "outage_ci95_low": float(ci_low[j]),
                "outage_ci95_high": float(ci_high[j]),
                "median_min_snr_db": float(median[j]),
            }
    return rows


# -- sim: corridor day simulation ---------------------------------------------


# Per-process memo of seeded timetable fleets and their packed run tensors:
# cells that share the traffic scenario (e.g. every ISD and policy of one
# demand point) reuse one fleet — common random numbers across those axes.
@functools.lru_cache(maxsize=32)
def _timetable_fleet(headway_s: float, service_hours: float,
                     realizations: int, seed: int):
    from repro.simulation.batch import pack_runs
    from repro.traffic.timetable import day_timetables
    from repro.traffic.trains import TrafficParams

    traffic = TrafficParams(trains_per_hour=3600.0 / headway_s,
                            night_quiet_hours=24.0 - service_hours)
    timetables = day_timetables(traffic, realizations=realizations, seed=seed)
    return traffic, timetables[0].horizon_s, pack_runs(timetables)


def _finite(name: str, value, positive: bool = False) -> float:
    """A parameter as a finite float, > 0 or >= 0 (NaN is an error)."""
    number = _number(value)
    if not (math.isfinite(number) and (number > 0 if positive else number >= 0)):
        raise ConfigurationError(
            f"{name} must be finite and {'> 0' if positive else '>= 0'}, "
            f"got {value!r}")
    return number


def _run_sim(cases: list[dict], seeds: list[int], context: dict) -> list[dict]:
    from repro.corridor.layout import CorridorLayout
    from repro.energy.duty import EnergyParams
    from repro.energy.scenario import OperatingMode, segment_energy
    from repro.simulation.batch import occupancy_stage, power_stage
    from repro.simulation.elements import corridor_elements

    # Validate every case before any compute, then key each feasible case
    # by its occupancy pass: policy enters only in the power stage, so the
    # policies over one geometry and fleet share one pass.
    modes = {mode.value: mode for mode in OperatingMode}
    nan = float("nan")
    rows: list[dict] = [None] * len(cases)  # type: ignore[list-item]
    passes: dict[tuple, list[int]] = {}
    for i, (case, seed) in enumerate(zip(cases, seeds)):
        policy = str(case["policy"])
        if policy not in modes:
            raise ConfigurationError(
                f"unknown policy {policy!r}; available: {sorted(modes)}")
        headway = float(case["headway_s"])
        tpd = float(case["trains_per_day"])
        if not (headway > 0 and tpd > 0):
            raise ConfigurationError(
                f"headway_s and trains_per_day must be positive, got "
                f"({headway}, {tpd})")
        service_hours = tpd * headway / 3600.0
        key = (_finite("isd_m", case["isd_m"], positive=True),
               _count("n_repeaters", case["n_repeaters"], minimum=0),
               headway, service_hours,
               _count("realizations", case["realizations"]), seed,
               _finite("transition_s", case["transition_s"]),
               _finite("wake_lead_m", case["wake_lead_m"]))
        if service_hours > 24.0:
            rows[i] = {
                "service_hours": service_hours, "feasible": 0,
                "realizations": 0, "mean_w_per_km": nan, "std_w_per_km": nan,
                "ci95_low": nan, "ci95_high": nan, "analytic_w_per_km": nan,
            }
        else:
            passes.setdefault(key, []).append(i)

    # One interval pass per distinct key (a fleet is built and packed once,
    # in the memo); one occupancy_scan call per (transition_s, horizon_s).
    scans: dict[tuple, list[tuple]] = {}
    for key in passes:
        isd, n_repeaters, headway, service_hours, realizations, seed, \
            transition, lead = key
        traffic, horizon, runs = _timetable_fleet(
            headway, service_hours, realizations, seed)
        layout = CorridorLayout.with_uniform_repeaters(isd, n_repeaters)
        params = EnergyParams(traffic=traffic)
        sections = corridor_elements(layout, params=params)
        scans.setdefault((transition, horizon), []).append(
            (key, layout, params, (sections, runs, layout.isd_m, lead)))
    for (transition, horizon), members in scans.items():
        occupancies = occupancy_stage([member[3] for member in members],
                                      transition, horizon)
        for (key, layout, params, _), occupancy in zip(members, occupancies):
            for i in passes[key]:
                mode = modes[str(cases[i]["policy"])]
                sim = power_stage(layout, mode,
                                  corridor_elements(layout, mode, params),
                                  horizon, occupancy)
                ci_low, ci_high = sim.ci95_w_per_km()
                rows[i] = {
                    "service_hours": key[3], "feasible": 1,
                    "realizations": sim.realizations,
                    "mean_w_per_km": sim.mean_w_per_km(),
                    "std_w_per_km": sim.std_w_per_km(),
                    "ci95_low": ci_low, "ci95_high": ci_high,
                    "analytic_w_per_km": segment_energy(layout, mode,
                                                        params).w_per_km,
                }
    return rows


# -- network: corridor-graph topology optimization ----------------------------


def _network_frontiers(case: dict, context: dict):
    from repro.network.presets import build_graph

    # build_graph is memoized on its resolved arguments, so the graph
    # object itself keys the frontier (identity hash, O(1)).
    graph = build_graph(str(case["graph"]), n_segments=int(case["segments"]),
                        demand_scale=float(case["demand_scale"]))
    return _frontiers(graph, str(case["technologies"]),
                      float(case["min_sleep_headway_s"]),
                      float(case["resolution_m"]),
                      float(case["horizon_years"]), context.get("cache_dir"))


# Per-process memo of segment frontiers: the budget axis of a network study
# sweeps many budgets over the *same* graph/catalog, so cells sharing the
# frontier inputs reuse one set of arrays instead of re-running the batched
# pass per case.  The cache directory keys the memo only because it names
# the profile cache the pass fills.
@functools.lru_cache(maxsize=4)
def _frontiers(graph, technologies: str, min_sleep_headway_s: float,
               resolution_m: float, horizon_years: float, cache_dir):
    from repro.network.frontier import TechnologyCatalog, segment_frontiers

    catalog = TechnologyCatalog.from_names(
        technologies, min_sleep_headway_s=min_sleep_headway_s)
    return segment_frontiers(graph, catalog, resolution_m=resolution_m,
                             horizon_years=horizon_years,
                             cache=_profile_cache(cache_dir))


#: Network parameters a case must give as finite numbers.  Only finiteness
#: is checked here (a budget <= 0 means unconstrained); the network layer
#: checks the ranges.
_NETWORK_FINITE = ("demand_scale", "energy_budget_w_per_km",
                   "cost_budget_keur_per_km", "min_sleep_headway_s",
                   "resolution_m", "horizon_years")


def _run_network(cases: list[dict], seeds: list[int], context: dict) -> list[dict]:
    from repro.errors import InfeasibleError
    from repro.network.optimize import optimize_network

    # Validate every case before any compute: NaN passes every range check.
    for case in cases:
        for name in _NETWORK_FINITE:
            if not math.isfinite(_number(case[name])):
                raise ConfigurationError(
                    f"{name} must be a finite number, got {case[name]!r}")
    nan = float("nan")
    rows = []
    for case in cases:
        frontiers = _network_frontiers(case, context)
        length_km = frontiers.graph.length_km
        # Budgets are per track km (scale-invariant across graph sizes);
        # the optimizer itself takes the global totals.
        energy_budget = float(case["energy_budget_w_per_km"])
        cost_budget = float(case["cost_budget_keur_per_km"])
        min_w_per_km = frontiers.min_energy_w() / length_km
        try:
            plan = optimize_network(
                frontiers=frontiers,
                energy_budget_w=(None if energy_budget <= 0
                                 else energy_budget * length_km),
                cost_budget_eur=(None if cost_budget <= 0
                                 else cost_budget * 1e3 * length_km))
        except InfeasibleError:
            rows.append({
                "feasible": 0, "total_cost_meur": nan, "total_energy_kw": nan,
                "min_w_per_km": min_w_per_km, "mean_w_per_km": nan,
                "sleeping_segments": 0, "sleeping_fraction": nan,
                "n_conventional": 0, "n_repeater": 0, "n_mobile_relay": 0,
                "n_solar": 0,
            })
            continue
        counts = plan.technology_counts()
        rows.append({
            "feasible": 1,
            "total_cost_meur": plan.total_cost_eur / 1e6,
            "total_energy_kw": plan.total_energy_w / 1e3,
            "min_w_per_km": min_w_per_km,
            "mean_w_per_km": plan.total_energy_w / length_km,
            "sleeping_segments": plan.n_sleeping,
            "sleeping_fraction": plan.n_sleeping / frontiers.n_segments,
            "n_conventional": counts["conventional"],
            "n_repeater": counts["repeater"],
            "n_mobile_relay": counts["mobile_relay"],
            "n_solar": counts["solar"],
        })
    return rows


# -- registry -----------------------------------------------------------------

STUDY_ENGINES: dict[str, EngineAdapter] = {
    adapter.name: adapter for adapter in (
        EngineAdapter(
            name="radio",
            description="Deterministic Eq. (2) SNR grids "
                        "(repro.radio.batch.evaluate_scenarios)",
            params={
                "isd_m": REQUIRED,
                "n_repeaters": 0,
                "spacing_m": constants.LP_NODE_SPACING_M,
                "resolution_m": 1.0,
                "hp_eirp_dbm": None,
                "lp_eirp_dbm": None,
                "terminal_noise_figure_db": None,
                "repeater_noise_figure_db": None,
                "threshold_db": constants.PEAK_SNR_CRITERION_DB,
            },
            metrics=("min_snr_db", "mean_snr_db", "feasible", "margin_db"),
            runner=_run_radio,
        ),
        EngineAdapter(
            name="solar",
            description="Off-grid PV/battery yearly balance "
                        "(repro.solar.batch.simulate_systems)",
            params={
                "location": REQUIRED,
                "pv_peak_w": REQUIRED,
                "battery_wh": REQUIRED,
                "performance_ratio": 0.80,
                "days": 365,
            },
            metrics=("zero_downtime", "unmet_hours", "unmet_wh", "min_soc",
                     "full_battery_days_pct", "annual_pv_kwh",
                     "annual_load_kwh"),
            runner=_run_solar,
        ),
        EngineAdapter(
            name="mc",
            description="Monte-Carlo shadowing outage "
                        "(repro.optimize.mc.min_snr_matrix)",
            params={
                "isd_m": REQUIRED,
                "n_repeaters": 0,
                "spacing_m": constants.LP_NODE_SPACING_M,
                "resolution_m": 10.0,
                "hp_eirp_dbm": None,
                "lp_eirp_dbm": None,
                "terminal_noise_figure_db": None,
                "repeater_noise_figure_db": None,
                "sigma_db": 4.0,
                "decorrelation_m": 50.0,
                "trials": 100,
                "threshold_db": constants.PEAK_SNR_CRITERION_DB,
            },
            metrics=("outage_probability", "outage_ci95_low",
                     "outage_ci95_high", "median_min_snr_db"),
            runner=_run_mc,
        ),
        EngineAdapter(
            name="sim",
            description="Corridor day-simulation fleets "
                        "(repro.simulation.batch.simulate_days)",
            params={
                "isd_m": REQUIRED,
                "n_repeaters": 8,
                "headway_s": REQUIRED,
                "trains_per_day": REQUIRED,
                "policy": REQUIRED,
                "realizations": 25,
                "transition_s": constants.SLEEP_TRANSITION_S,
                "wake_lead_m": 50.0,
            },
            metrics=("service_hours", "feasible", "realizations",
                     "mean_w_per_km", "std_w_per_km", "ci95_low", "ci95_high",
                     "analytic_w_per_km"),
            runner=_run_sim,
        ),
        EngineAdapter(
            name="network",
            description="Corridor-graph topology optimization "
                        "(repro.network.optimize.optimize_network)",
            params={
                "graph": REQUIRED,
                "segments": 0,
                "demand_scale": 1.0,
                "energy_budget_w_per_km": REQUIRED,
                "cost_budget_keur_per_km": 0.0,
                "technologies": "conventional,repeater,mobile_relay",
                "min_sleep_headway_s": 300.0,
                "resolution_m": 25.0,
                "horizon_years": 10.0,
            },
            metrics=("feasible", "total_cost_meur", "total_energy_kw",
                     "min_w_per_km", "mean_w_per_km", "sleeping_segments",
                     "sleeping_fraction", "n_conventional", "n_repeater",
                     "n_mobile_relay", "n_solar"),
            runner=_run_network,
        ),
    )
}


#: Per adapter, modules whose import closure covers every import its
#: runner makes at run time, numpy's lazily loaded subpackages included:
#: ``numpy.random`` serves the seeded engines' generators (pinned by
#: ``tests/test_import_layering.py``).
_ENGINE_MODULES: dict[str, tuple[str, ...]] = {
    "radio": ("repro.radio.batch",),
    "solar": ("repro.solar.batch", "numpy.random"),
    "mc": ("repro.optimize.mc", "repro.radio.batch", "numpy.random"),
    "sim": ("repro.simulation.batch", "numpy.random"),
    "network": ("repro.network.optimize", "repro.network.presets",
                "repro.radio.batch"),
}


def import_engine(engine: str) -> None:
    """Import every module adapter ``engine``'s runner needs, now.

    A process pool calls this in its parent before the first worker forks,
    so the workers inherit the engine instead of each importing it; the
    service calls it for every engine before its first job, so no job
    pays an import.
    """
    for module in _ENGINE_MODULES[engine]:
        importlib.import_module(module)


def run_cases(engine: str, cases: list[dict], seeds: list[int],
              context: dict | None = None) -> list[dict]:
    """Evaluate resolved cases through an engine adapter.

    Args:
        engine: Adapter id from :data:`STUDY_ENGINES`.
        cases: Case parameter dicts (axis points merged over fixed values;
            adapter defaults are applied here).
        seeds: Engine seed per case, aligned with ``cases``.
        context: Optional ``cache_dir`` (a path string) under which the
            per-process profile and weather caches persist.  Other keys
            pass through untouched: the supervised runner ships a
            ``fault_plan`` mapping here (:mod:`repro.faults`), consumed by
            the worker entry point before this function runs.

    Returns:
        One ``{metric: value}`` dict per case, aligned with ``cases``, with
        exactly the adapter's declared metric columns.

    Raises:
        ConfigurationError: For an unknown engine or invalid case values
            (unknown location/policy, non-positive axes, ...).
    """
    adapter = STUDY_ENGINES.get(engine)
    if adapter is None:
        raise ConfigurationError(
            f"unknown study engine {engine!r}; available: {sorted(STUDY_ENGINES)}")
    if len(cases) != len(seeds):
        raise ConfigurationError(
            f"case/seed length mismatch: {len(cases)} != {len(seeds)}")
    defaults = adapter.resolve({})
    resolved = [defaults | case for case in cases]
    rows = adapter.runner(resolved, list(seeds), dict(context or {}))
    if len(rows) != len(cases):  # pragma: no cover - adapter contract
        raise ConfigurationError(
            f"engine {engine!r} returned {len(rows)} rows for "
            f"{len(cases)} cases")
    metrics = adapter.metrics
    ordered = []
    for row in rows:
        if tuple(row) != metrics:  # pragma: no cover - adapter contract
            missing = set(metrics) - set(row)
            if missing:
                raise ConfigurationError(
                    f"engine {engine!r} row is missing metrics "
                    f"{sorted(missing)}")
            row = {name: row[name] for name in metrics}
        ordered.append(row)
    return ordered
