"""Tests for the vectorized day-simulation engine and its consumers.

Cross-engine equality lives in tests/test_engine_parity.py; this module
covers the batch engine's own semantics: CRN timetable fleets, result
accounting, validation, the sleep-policy comparison in repro.energy, the
shipped sim-grid study, and the ``sim`` study adapter's batching (one
occupancy pass per distinct geometry and fleet, one kernel scan per
transition time and horizon, rows equal bit for bit to a per-case loop).
"""

import math
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles.des import simulate_days_event
from repro.corridor.layout import CorridorLayout
from repro.energy.analysis import simulated_policy_comparison
from repro.energy.duty import EnergyParams
from repro.energy.scenario import OperatingMode, segment_energy
from repro.errors import ConfigurationError
from repro.simulation.batch import simulate_days
from repro.simulation.elements import ElementSpec, corridor_elements
from repro.study import load_study, parse_study, run_study
from repro.study.engines import STUDY_ENGINES, run_cases
from repro.traffic.timetable import Timetable, TrainRun, day_timetables, generate_timetable
from repro.traffic.trains import TrafficParams

LAYOUT = CorridorLayout.with_uniform_repeaters(2400.0, 8)

STUDIES_DIR = Path(__file__).resolve().parents[1] / "studies"


class TestElementSpecs:
    def test_element_roster_matches_layout(self):
        specs = corridor_elements(LAYOUT, OperatingMode.SLEEP)
        names = [s.name for s in specs]
        assert names[0] == "hp/mast"
        assert sum(n.startswith("service/") for n in names) == 8
        assert sum(n.startswith("donor/") for n in names) == 2
        assert specs[0].section_start_m == 0.0
        assert specs[0].section_end_m == LAYOUT.isd_m

    def test_continuous_mode_disables_lp_sleep(self):
        specs = corridor_elements(LAYOUT, OperatingMode.CONTINUOUS)
        by_kind = {s.kind: s for s in specs}
        assert by_kind["hp"].sleep_capable
        assert not by_kind["service"].sleep_capable
        assert not by_kind["donor"].sleep_capable

    def test_single_repeater_gets_one_donor(self):
        layout = CorridorLayout.with_uniform_repeaters(1250.0, 1)
        kinds = [s.kind for s in corridor_elements(layout)]
        assert kinds.count("donor") == 1

    def test_bad_power_ordering_rejected(self):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            ElementSpec("x", "hp", full_load_w=1.0, no_load_w=2.0, sleep_w=3.0,
                        sleep_capable=True, section_start_m=0.0,
                        section_end_m=10.0)

    def test_inverted_section_rejected(self):
        with pytest.raises(ConfigurationError):
            ElementSpec("x", "hp", full_load_w=3.0, no_load_w=2.0, sleep_w=1.0,
                        sleep_capable=True, section_start_m=10.0,
                        section_end_m=10.0)


class TestDayTimetables:
    def test_crn_convention_is_pure_function_of_seed_and_index(self):
        fleet_a = day_timetables(realizations=3, seed=5)
        fleet_b = day_timetables(realizations=5, seed=5)
        for a, b in zip(fleet_a, fleet_b):
            assert [r.t0_s for r in a] == [r.t0_s for r in b]

    def test_distinct_seeds_distinct_days(self):
        a, = day_timetables(realizations=1, seed=0)
        b, = day_timetables(realizations=1, seed=1)
        assert [r.t0_s for r in a] != [r.t0_s for r in b]

    def test_rejects_zero_realizations(self):
        with pytest.raises(ConfigurationError):
            day_timetables(realizations=0)


class TestSimulateDays:
    def test_deterministic_matches_analytic(self):
        result = simulate_days(LAYOUT, mode=OperatingMode.SLEEP)
        analytic = segment_energy(LAYOUT, OperatingMode.SLEEP).w_per_km
        assert result.avg_w_per_km[0] == pytest.approx(analytic, rel=0.02)

    def test_active_seconds_reproduce_duty_cycle(self):
        # The deterministic timetable reproduces the analytic duty cycle of
        # every element section exactly (the Table III cross-check).
        from repro.traffic.occupancy import occupancy_seconds_per_day

        result = simulate_days(LAYOUT, mode=OperatingMode.SLEEP)
        specs = corridor_elements(LAYOUT, OperatingMode.SLEEP)
        for e, spec in enumerate(specs):
            expected = occupancy_seconds_per_day(
                spec.section_end_m - spec.section_start_m)
            assert result.active_s[0, e] == pytest.approx(expected, rel=1e-9)

    def test_solar_mains_counts_only_hp(self):
        result = simulate_days(LAYOUT, mode=OperatingMode.SOLAR)
        assert np.array_equal(result.total_mains_wh, result.hp_wh)
        assert result.service_wh[0] > 0.0

    def test_empty_timetable_everything_sleeps(self):
        layout = CorridorLayout.with_uniform_repeaters(1250.0, 1)
        params = EnergyParams(traffic=TrafficParams(trains_per_hour=0.0))
        result = simulate_days(layout, params=params)
        assert np.all(result.active_s == 0.0)
        assert np.all(result.awake_s == 0.0)
        expected = (224.0 + 2 * 4.72) * 24.0
        assert result.total_mains_wh[0] == pytest.approx(expected, rel=1e-6)

    def test_result_arrays_read_only(self):
        result = simulate_days(LAYOUT)
        with pytest.raises(ValueError):
            result.energy_wh[0, 0] = 0.0

    def test_fleet_statistics(self):
        result = simulate_days(LAYOUT, stochastic=True, realizations=8, seed=2)
        assert result.realizations == 8
        low, high = result.ci95_w_per_km()
        assert low < result.mean_w_per_km() < high
        assert result.std_w_per_km() > 0.0

    def test_single_realization_has_zero_std(self):
        result = simulate_days(LAYOUT)
        assert result.std_w_per_km() == 0.0
        low, high = result.ci95_w_per_km()
        assert low == high == result.mean_w_per_km()

    def test_slower_transition_costs_energy(self):
        fast = simulate_days(LAYOUT, transition_s=0.0, wake_lead_m=0.0)
        slow = simulate_days(LAYOUT, transition_s=5.0, wake_lead_m=300.0)
        assert slow.total_mains_wh[0] > fast.total_mains_wh[0]

    def test_rejects_negative_transition_and_lead(self):
        with pytest.raises(ConfigurationError):
            simulate_days(LAYOUT, transition_s=-1.0)
        with pytest.raises(ConfigurationError):
            simulate_days(LAYOUT, wake_lead_m=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_transition_and_lead(self, value):
        with pytest.raises(ConfigurationError, match="transition"):
            simulate_days(LAYOUT, transition_s=value)
        with pytest.raises(ConfigurationError, match="wake lead"):
            simulate_days(LAYOUT, wake_lead_m=value)

    def test_rejects_mismatched_horizons(self):
        mixed = (generate_timetable(days=1.0), generate_timetable(days=2.0))
        with pytest.raises(ConfigurationError):
            simulate_days(LAYOUT, timetables=mixed)

    def test_rejects_conflicting_realizations(self):
        tts = (generate_timetable(),)
        with pytest.raises(ConfigurationError):
            simulate_days(LAYOUT, timetables=tts, realizations=3)

    def test_rejects_empty_fleet(self):
        with pytest.raises(ConfigurationError):
            simulate_days(LAYOUT, timetables=())

    def test_run_entirely_before_horizon_boundary(self):
        # A run whose section entry lies beyond the horizon: the barrier
        # still wakes the element, which then idles to the end of the day.
        tt = Timetable(runs=(TrainRun(t0_s=3599.0),), horizon_s=3600.0)
        result = simulate_days(LAYOUT, timetables=(tt,))
        hp = result.element_names.index("hp/mast")
        assert result.active_s[0, hp] == pytest.approx(1.0, abs=1e-6)


class TestPolicyComparison:
    def test_policies_share_common_random_days(self):
        comparison = simulated_policy_comparison(LAYOUT, realizations=5, seed=3)
        assert set(comparison) == set(OperatingMode)
        sleep = comparison[OperatingMode.SLEEP]
        cont = comparison[OperatingMode.CONTINUOUS]
        assert sleep.mean_w_per_km < cont.mean_w_per_km
        assert comparison[OperatingMode.SOLAR].mean_w_per_km < sleep.mean_w_per_km
        for policy in comparison.values():
            assert policy.realizations == 5
            assert abs(policy.simulated_minus_analytic_pct) < 5.0
            assert policy.ci95_w_per_km[0] <= policy.mean_w_per_km \
                <= policy.ci95_w_per_km[1]

    def test_deterministic_mode_matches_analytic_tightly(self):
        comparison = simulated_policy_comparison(LAYOUT, realizations=1,
                                                 stochastic=False)
        for policy in comparison.values():
            assert policy.mean_w_per_km == pytest.approx(
                policy.analytic_w_per_km, rel=0.02)


def _sim_grid(trains_per_day, realizations, seed=0, **fixed):
    """``studies/sim_grid.yaml`` at ISD 2400 m over a trains/day axis."""
    spec = load_study(STUDIES_DIR / "sim_grid.yaml")
    spec = replace(spec, seed=seed, axes=(
        ("isd_m", (2400.0,)),
        ("trains_per_day", tuple(trains_per_day)),
        ("policy", tuple(mode.value for mode in OperatingMode)),
    ))
    return spec.with_overrides(realizations=realizations, **fixed)


class TestSimGridExperiment:
    """The shipped sim-grid study (headway 450 s) through the study runner."""

    def test_grid_shape_and_feasibility(self):
        table = run_study(_sim_grid((76.0, 152.0, 304.0), 3)).table
        assert len(table) == 3 * 3
        wide = table.wide()
        rows = [dict(zip(wide, cells)) for cells in zip(*wide.values())]
        # 304 trains at 450 s needs 38 service hours — unschedulable.
        assert {r["trains_per_day"] for r in rows if not r["feasible"]} \
            == {304.0}
        for row in rows:
            if row["feasible"]:
                assert row["mean_w_per_km"] == pytest.approx(
                    row["analytic_w_per_km"], rel=0.05)
                assert row["realizations"] == 3
            else:
                assert math.isnan(row["analytic_w_per_km"])

    def test_series_and_table_cover_all_rows(self):
        table = run_study(_sim_grid((152.0,), 2)).table
        assert table.wide()["policy"] == ["continuous", "sleep", "solar"]
        assert table.table().startswith("study sim-grid-demand: 3 cases")

    def test_engines_agree_cell_for_cell(self):
        # The study runs the batch engine; the event oracle agrees with the
        # study on every cell.
        spec = _sim_grid((152.0,), 2, seed=4)
        batch = run_study(spec).table.wide()
        event = {"mean_w_per_km": [], "std_w_per_km": []}
        for i, case in enumerate(spec.cases()):
            traffic = TrafficParams(
                trains_per_hour=3600.0 / case["headway_s"],
                night_quiet_hours=24.0 - case["trains_per_day"]
                * case["headway_s"] / 3600.0)
            sim, _ = simulate_days_event(
                CorridorLayout.with_uniform_repeaters(case["isd_m"], 8),
                mode=OperatingMode(case["policy"]),
                params=EnergyParams(traffic=traffic),
                timetables=day_timetables(
                    traffic, realizations=2, seed=spec.case_seed(i)))
            event["mean_w_per_km"].append(sim.mean_w_per_km())
            event["std_w_per_km"].append(sim.std_w_per_km())
        assert batch["mean_w_per_km"] == pytest.approx(
            event["mean_w_per_km"], rel=1e-9)
        assert batch["std_w_per_km"] == pytest.approx(
            event["std_w_per_km"], rel=1e-6)

    def test_rejects_bad_axes(self):
        with pytest.raises(ConfigurationError):
            _sim_grid((), 2)
        with pytest.raises(ConfigurationError):
            run_study(_sim_grid((0.0,), 2))
        with pytest.raises(ConfigurationError):
            run_study(_sim_grid((76.0,), 0))


class TestCorridorSimulationRouting:
    def test_matches_the_event_oracle(self):
        from repro.simulation.corridor_sim import CorridorSimulation

        corridor = CorridorSimulation(LAYOUT)
        batch = corridor.run()
        event, events_processed = simulate_days_event(
            LAYOUT, timetables=(corridor.timetable,))
        assert events_processed[0] > 1000
        assert batch.total_mains_wh == pytest.approx(
            float(event.total_mains_wh[0]), rel=1e-9)


# -- the sim adapter's batching -------------------------------------------------

#: Every axis the adapter batches over: policy (power stage only),
#: n_repeaters (geometry), transition_s (a second scan call), trains_per_day
#: (304 at 450 s is infeasible, interleaved with feasible cells) and
#: realizations (two fleets per demand point).
SIM_BATCH_TEXT = """
name: p-sim-batch
engine: sim
seed: 5
seed_mode: {seed_mode}
axes:
  trains_per_day: [76.0, 304.0, 152.0]
  n_repeaters: [8, 4]
  transition_s: [0.3, 5.0]
  realizations: [2, 3]
  policy: [continuous, sleep, solar]
fixed:
  isd_m: 2400.0
  headway_s: 450.0
"""


def bits(row: dict) -> list:
    """A row as exactly comparable values: ``repr`` round-trips every
    float, NaN compares equal to NaN."""
    return [(name, type(value), repr(value)) for name, value in row.items()]


def per_case_sim(cases, seeds):
    """The ``sim`` adapter as a per-case loop: one fleet and one
    :func:`simulate_days` call per case."""
    adapter = STUDY_ENGINES["sim"]
    nan = float("nan")
    rows = []
    for case, seed in zip(cases, seeds):
        case = adapter.resolve(case)
        headway = float(case["headway_s"])
        service_hours = float(case["trains_per_day"]) * headway / 3600.0
        if service_hours > 24.0:
            rows.append({
                "service_hours": service_hours, "feasible": 0,
                "realizations": 0, "mean_w_per_km": nan,
                "std_w_per_km": nan, "ci95_low": nan, "ci95_high": nan,
                "analytic_w_per_km": nan})
            continue
        traffic = TrafficParams(trains_per_hour=3600.0 / headway,
                                night_quiet_hours=24.0 - service_hours)
        params = EnergyParams(traffic=traffic)
        layout = CorridorLayout.with_uniform_repeaters(
            float(case["isd_m"]), int(case["n_repeaters"]))
        mode = OperatingMode(case["policy"])
        sim = simulate_days(
            layout, mode=mode, params=params,
            timetables=day_timetables(
                traffic, realizations=int(case["realizations"]), seed=seed),
            transition_s=float(case["transition_s"]),
            wake_lead_m=float(case["wake_lead_m"]))
        ci_low, ci_high = sim.ci95_w_per_km()
        rows.append({
            "service_hours": service_hours, "feasible": 1,
            "realizations": sim.realizations,
            "mean_w_per_km": sim.mean_w_per_km(),
            "std_w_per_km": sim.std_w_per_km(),
            "ci95_low": ci_low, "ci95_high": ci_high,
            "analytic_w_per_km": segment_energy(layout, mode,
                                                params).w_per_km})
    return rows


@pytest.fixture
def sim_spies(monkeypatch):
    """Count fleet builds, occupancy passes and ``occupancy_scan`` calls,
    starting from an empty fleet memo."""
    import repro.simulation.batch as batch
    import repro.study.engines as engines
    import repro.traffic.timetable as timetable

    counts = {"fleets": 0, "passes": 0, "scans": []}
    monkeypatch.setattr(engines, "_TIMETABLE_MEMO", OrderedDict())

    def spy(module, attr, record):
        original = getattr(module, attr)

        def wrapped(*args, **kwargs):
            record(*args)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, attr, wrapped)

    def bump(key):
        def record(*args):
            counts[key] += 1
        return record

    spy(timetable, "day_timetables", bump("fleets"))
    spy(batch, "_interval_groups", bump("passes"))
    spy(batch, "occupancy_scan",
        lambda g_a, *args: counts["scans"].append(g_a.shape[0]))
    return counts


def _cases(text, seed_mode="shared"):
    spec = parse_study(text.format(seed_mode=seed_mode))
    cases = spec.cases()
    return cases, [spec.case_seed(i) for i in range(len(cases))]


class TestSimBatching:
    @pytest.mark.parametrize("seed_mode", ["shared", "per-case"])
    def test_rows_equal_the_per_case_loop(self, seed_mode):
        cases, seeds = _cases(SIM_BATCH_TEXT, seed_mode)
        rows = per_case_sim(cases, seeds)
        assert {row["feasible"] for row in rows} == {0, 1}
        oracle = [bits(row) for row in rows]
        assert [bits(row) for row in run_cases("sim", cases, seeds)] == oracle
        order = np.random.default_rng(9).permutation(len(cases))
        shuffled = run_cases("sim", [cases[i] for i in order],
                             [seeds[i] for i in order])
        assert [bits(row) for row in shuffled] == [oracle[i] for i in order]

    def test_one_pass_per_key_one_scan_per_transition(self, sim_spies):
        cases, seeds = _cases(SIM_BATCH_TEXT)
        run_cases("sim", cases, seeds)
        # Feasible demand points (76, 152) x realizations (2, 3) fleets;
        # x n_repeaters x transition_s passes; one scan per transition_s.
        assert sim_spies["fleets"] == 4
        assert sim_spies["passes"] == 16
        assert len(sim_spies["scans"]) == 2

    def test_sim_grid_makes_six_passes_two_fleets_one_scan(self, sim_spies):
        spec = load_study(STUDIES_DIR / "sim_grid.yaml")
        cases = spec.cases()
        seeds = [spec.case_seed(i) for i in range(len(cases))]
        rows = run_cases("sim", cases, seeds)
        assert sum(row["feasible"] for row in rows) == 18
        assert sim_spies["fleets"] <= 2
        assert sim_spies["passes"] <= 6
        # One scan over every pass's 25 realizations x 11 elements.
        assert sim_spies["scans"] == [sim_spies["passes"] * 25 * 11]
        assert [bits(row) for row in rows] == \
            [bits(row) for row in per_case_sim(cases, seeds)]

    def test_hp_only_corridor_runs(self):
        cases, seeds = _cases(SIM_BATCH_TEXT)
        cases = [dict(case, n_repeaters=0) for case in cases[:6]]
        assert [bits(row) for row in run_cases("sim", cases, seeds[:6])] == \
            [bits(row) for row in per_case_sim(cases, seeds[:6])]

    def test_integral_floats_run_as_ints(self):
        cases, seeds = _cases(SIM_BATCH_TEXT)
        cases, seeds = cases[:6], seeds[:6]
        floats = [dict(case, realizations=float(case["realizations"]),
                       n_repeaters=float(case["n_repeaters"]))
                  for case in cases]
        assert run_cases("sim", floats, seeds) == run_cases("sim", cases, seeds)

    @pytest.mark.parametrize("name, value", [
        ("realizations", 3.7), ("realizations", 0), ("realizations", -2),
        ("realizations", "many"),
        ("n_repeaters", 8.9), ("n_repeaters", -1),
        ("isd_m", float("nan")), ("isd_m", 0.0), ("isd_m", float("inf")),
        ("transition_s", float("nan")), ("transition_s", -1.0),
        ("transition_s", float("inf")),
        ("wake_lead_m", float("nan")), ("wake_lead_m", -5.0),
        ("headway_s", float("nan")), ("trains_per_day", float("nan")),
    ])
    def test_invalid_values_are_rejected_before_any_compute(
            self, name, value, sim_spies):
        cases, seeds = _cases(SIM_BATCH_TEXT)
        # The bad case comes last, after a feasible one.
        cases = [cases[0], dict(cases[1], **{name: value})]
        with pytest.raises(ConfigurationError, match=name):
            run_cases("sim", cases, seeds[:2])
        assert sim_spies["fleets"] == sim_spies["passes"] == 0
        assert sim_spies["scans"] == []
