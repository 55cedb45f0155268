"""Cross-engine parity matrix — scalar oracle vs. batched, all engines.

Every vectorized engine in the codebase has a scalar oracle (the radio
engine's is the public scalar :func:`repro.radio.link.compute_snr_profile`;
the others live in ``tests/oracles/``); this module is the single place
asserting they agree, over one shared seed sweep:

* **radio**  — :func:`repro.radio.batch.evaluate_scenarios` vs. the scalar
  :func:`repro.radio.link.compute_snr_profile` (deterministic: bit-identical
  arrays, no seed axis);
* **solar**  — :func:`repro.solar.batch.simulate_systems` vs. the
  per-system year walk :func:`oracles.solar.simulate_year`;
* **mc**     — :func:`repro.optimize.mc.outage_matrix` vs. the per-trial
  walk :func:`oracles.mc.outage_matrix_scalar`;
* **sim**    — :func:`repro.simulation.batch.simulate_days` vs. the event
  DES :func:`oracles.des.simulate_days_event` (equal to 1e-9: both engines
  see bit-identical event instants and differ only by float summation
  order);
* **network** — :func:`repro.network.frontier.segment_frontiers`
  ``engine="batched"`` vs. the ``engine="scalar"`` per-segment reference
  (bit-identical frontier arrays), and the optimizer through the study
  runner for any ``jobs``/``shards`` layout (inline == pooled).

The solar and mc engines are compared twice: with the step-loop kernel
oracles substituted (the ``reference_kernels`` fixture) they are
bit-identical to the scalar oracle; on the fused kernels the mc minima and
the solar SoC-dependent floats are pinned to <= 1e-9, everything else
exactly.

It replaces the per-PR ad-hoc equality tests that previously lived in
``test_batch.py`` / ``test_solar_batch.py`` / ``test_mc_engine.py``;
engine-specific behaviours (caching, sharding, CRN prefix properties) stay
in those modules.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from oracles.des import simulate_days_event
from oracles.mc import outage_matrix_scalar
from oracles.solar import simulate_year

from repro.corridor.layout import CorridorLayout
from repro.energy.duty import EnergyParams
from repro.energy.scenario import OperatingMode
from repro.constants import PEAK_SNR_CRITERION_DB
from repro.optimize.mc import OutageMatrix, outage_matrix, trial_generators
from repro.propagation.fading import LogNormalShadowing
from repro.radio.batch import evaluate_scenarios
from repro.radio.link import LinkParams, compute_snr_profile
from repro.radio.noise import RepeaterNoiseModel
from repro.scenario.spec import Scenario
from repro.simulation.batch import simulate_days
from repro.solar.batch import WeatherCache, simulate_systems
from repro.solar.battery import Battery
from repro.solar.climates import LOCATIONS
from repro.solar.offgrid import OffGridResult, OffGridSystem
from repro.solar.pv import PvArray
from repro.traffic.timetable import Timetable, TrainRun
from repro.traffic.trains import Train

#: The shared seed sweep: every stochastic engine pair is compared on each.
SEEDS = (0, 7, 1234)

STUDIES_DIR = Path(__file__).resolve().parents[1] / "studies"


# --- radio: Eq. (2) batch vs. scalar profile --------------------------------------


class TestRadioParity:
    @pytest.mark.parametrize("model", list(RepeaterNoiseModel))
    def test_profiles_bit_identical(self, model):
        link = LinkParams(repeater_noise_model=model)
        scenarios = [
            Scenario(CorridorLayout.with_uniform_repeaters(isd, n), link, 2.0)
            for isd, n in [(900.0, 0), (1250.0, 1), (2400.0, 8),
                           (2437.5, 8), (3000.0, 10)]
        ]
        for sc, batch in zip(scenarios, evaluate_scenarios(scenarios)):
            ref = compute_snr_profile(sc.layout, sc.link, resolution_m=2.0)
            for name in ("positions_m", "source_rsrp_dbm", "total_signal_dbm",
                         "total_noise_dbm", "snr_db"):
                assert np.array_equal(getattr(batch, name),
                                      getattr(ref, name)), name


# --- solar: batched hourly balance vs. per-system scalar year ---------------------


class TestSolarParity:
    FIELDS = tuple(f.name for f in dataclasses.fields(OffGridResult))

    @staticmethod
    def _systems(key, seed):
        return [
            OffGridSystem(LOCATIONS[key], pv=PvArray(peak_w=pv),
                          battery=Battery(capacity_wh=wh), seed=seed)
            for pv, wh in ((360.0, 720.0), (540.0, 720.0), (600.0, 1440.0))
        ]

    @pytest.mark.parametrize("key", tuple(LOCATIONS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_field_matches_scalar(self, key, seed):
        systems = self._systems(key, seed)
        scalars = [simulate_year(system, start_day_of_year=274)
                   for system in systems]
        # The fused kernel runs the SoC-space formulation, so its
        # SoC-dependent floats are pinned at 1e-9 while integer counts,
        # metadata, and the hour-order PV sums stay exact.
        soc_dependent = {"unmet_wh", "min_soc", "annual_load_kwh"}
        batched = simulate_systems(systems, start_day_of_year=274,
                                   weather_cache=WeatherCache())
        for scalar, result in zip(scalars, batched):
            for name in self.FIELDS:
                got, want = getattr(result, name), getattr(scalar, name)
                if name in soc_dependent:
                    np.testing.assert_allclose(got, want, rtol=1e-9,
                                               atol=1e-9, err_msg=name)
                else:
                    assert got == want, name

    @pytest.mark.parametrize("key", tuple(LOCATIONS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_step_loop_kernel_bit_identical(self, key, seed,
                                            reference_kernels):
        # The step-loop soc_scan replays the scalar walk bitwise.
        systems = self._systems(key, seed)
        scalars = [simulate_year(system, start_day_of_year=274)
                   for system in systems]
        reference = simulate_systems(systems, start_day_of_year=274,
                                     weather_cache=WeatherCache())
        for scalar, result in zip(scalars, reference):
            assert result == scalar


# --- mc: batched shadowing trials vs. scalar replay -------------------------------


def _mc_profiles():
    layouts = [CorridorLayout.with_uniform_repeaters(1250.0, 1),
               CorridorLayout.with_uniform_repeaters(2400.0, 8),
               CorridorLayout.conventional(500.0)]
    return evaluate_scenarios(
        [Scenario(layout=lo, resolution_m=10.0) for lo in layouts])


def _mc_scalar(seed):
    profiles = _mc_profiles()
    shadowing = LogNormalShadowing(sigma_db=4.0)
    scalar = OutageMatrix(outage_matrix_scalar(profiles, shadowing, 40, seed),
                          threshold_db=PEAK_SNR_CRITERION_DB, seed=seed)
    return profiles, shadowing, scalar


def _trace_scalar(seed):
    model = LogNormalShadowing(sigma_db=3.0, decorrelation_m=30.0)
    pos = np.array([0.0, 4.0, 5.0, 50.0, 51.0, 300.0, 1000.0])
    scalar = np.stack([model.sample(pos, rng)
                       for rng in trial_generators(seed, 16)])
    return model, pos, scalar


class TestMcParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_ragged_grid_within_1e9(self, seed):
        profiles, shadowing, scalar = _mc_scalar(seed)
        batched = outage_matrix(profiles, shadowing, trials=40, seed=seed)
        np.testing.assert_allclose(batched.min_snr_db, scalar.min_snr_db,
                                   rtol=0.0, atol=1e-9)
        assert np.array_equal(batched.outage_counts, scalar.outage_counts)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_ragged_grid_bit_identical_on_step_loop_kernel(
            self, seed, reference_kernels):
        profiles, shadowing, scalar = _mc_scalar(seed)
        reference = outage_matrix(profiles, shadowing, trials=40, seed=seed)
        assert np.array_equal(reference.min_snr_db, scalar.min_snr_db)
        assert np.array_equal(reference.outage_counts, scalar.outage_counts)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_trial_streams_shared_across_engines(self, seed):
        # Both paths consume the same per-trial generator prefix.
        model, pos, scalar = _trace_scalar(seed)
        batch = model.sample_batch(pos, trial_generators(seed, 16))
        np.testing.assert_allclose(batch, scalar, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_trial_streams_bit_identical_on_step_loop_kernel(
            self, seed, reference_kernels):
        model, pos, scalar = _trace_scalar(seed)
        reference = model.sample_batch(pos, trial_generators(seed, 16))
        assert np.array_equal(reference, scalar)


# --- sim: batched interval algebra vs. the event queue ----------------------------


def _mixed_timetable():
    """Heterogeneous trains (length/speed/direction) on a short horizon."""
    return Timetable(runs=tuple(
        TrainRun(t0_s=t, train=Train(length_m=ln, speed_kmh=v), direction=d)
        for t, ln, v, d in [(10.0, 50.0, 40.0, 1), (30.0, 400.0, 200.0, -1),
                            (200.0, 100.0, 80.0, 1), (201.0, 100.0, 80.0, -1),
                            (260.0, 100.0, 80.0, 1)]),
        horizon_s=3600.0)


def assert_sim_engines_agree(**kwargs):
    batch = simulate_days(**kwargs)
    event, events_processed = simulate_days_event(**kwargs)
    assert batch.element_names == event.element_names
    assert batch.element_kinds == event.element_kinds
    for name in ("active_s", "awake_s", "energy_wh"):
        x, y = getattr(batch, name), getattr(event, name)
        assert x.shape == y.shape, name
        diff = np.max(np.abs(x - y) / np.maximum(1.0, np.abs(y)))
        assert diff <= 1e-9, f"{name} diverges: {diff:.2e}"
    assert np.all(events_processed >= 0)
    return batch, event


class TestSimParity:
    LAYOUT = CorridorLayout.with_uniform_repeaters(2400.0, 8)

    @pytest.mark.parametrize("mode", list(OperatingMode))
    def test_deterministic_timetable(self, mode):
        assert_sim_engines_agree(layout=self.LAYOUT, mode=mode)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_stochastic_fleet_trial_for_trial(self, seed):
        batch, event = assert_sim_engines_agree(
            layout=self.LAYOUT, stochastic=True, realizations=4, seed=seed)
        # Common random numbers: realization r is the same Poisson day in
        # both engines, so even per-realization columns match — not just
        # fleet statistics.
        assert batch.realizations == event.realizations == 4
        assert batch.avg_w_per_km.std() > 0.0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_late_wake_anomaly(self, seed):
        # Transition longer than the detection lead: trains enter sleeping
        # sections and exits land inside the wake transition (the event
        # engine's missed-sleep path).
        assert_sim_engines_agree(
            layout=self.LAYOUT, stochastic=True, realizations=3, seed=seed,
            transition_s=12.0, wake_lead_m=10.0)

    def test_zero_lead_zero_transition(self):
        assert_sim_engines_agree(layout=self.LAYOUT, transition_s=0.0,
                                 wake_lead_m=0.0)

    def test_multi_day_horizon(self):
        assert_sim_engines_agree(layout=self.LAYOUT, days=2.0)

    def test_conventional_layout(self):
        assert_sim_engines_agree(layout=CorridorLayout.conventional())

    def test_heterogeneous_trains(self):
        assert_sim_engines_agree(layout=self.LAYOUT,
                                 timetables=(_mixed_timetable(),))

    def test_dense_traffic_overlapping_occupancy(self):
        from repro.traffic.trains import TrafficParams
        params = EnergyParams(traffic=TrafficParams(trains_per_hour=60.0))
        assert_sim_engines_agree(layout=self.LAYOUT, params=params,
                                 stochastic=True, realizations=2, seed=1)


# --- network: batched frontier vs. scalar reference, layout invariance -------


def _demo_network_study():
    """``studies/national_network.yaml`` shrunk to the 48-segment demo graph."""
    from repro.study import load_study

    spec = load_study(STUDIES_DIR / "national_network.yaml")
    return dataclasses.replace(spec, axes=(
        ("demand_scale", (1.0, 2.0)),
        ("energy_budget_w_per_km", (0.0, 130.0)),
        ("technologies", ("conventional,repeater,mobile_relay",)),
    )).with_overrides(graph="demo", segments=0, resolution_m=50.0)


class TestNetworkParity:
    @pytest.mark.parametrize("scale", (0.5, 1.0, 2.0))
    def test_frontiers_bit_identical(self, scale):
        from repro.network import build_graph, segment_frontiers

        graph = build_graph("demo", demand_scale=scale)
        batched = segment_frontiers(graph, resolution_m=50.0)
        scalar = segment_frontiers(graph, resolution_m=50.0, engine="scalar")
        assert [o.label for o in batched.options] \
            == [o.label for o in scalar.options]
        assert np.array_equal(batched.energy_w, scalar.energy_w,
                              equal_nan=True)
        assert np.array_equal(batched.cost_eur, scalar.cost_eur,
                              equal_nan=True)
        assert np.array_equal(batched.feasible, scalar.feasible)
        assert np.array_equal(batched.eligible, scalar.eligible)

    def test_optimizer_identical_on_either_engine(self):
        from repro.network import build_graph, optimize_network

        graph = build_graph("demo")
        plans = [optimize_network(graph, resolution_m=50.0,
                                  energy_budget_w=13.0e3, engine=engine)
                 for engine in ("batched", "scalar")]
        assert np.array_equal(plans[0].option_index, plans[1].option_index)
        assert plans[0].total_cost_eur == plans[1].total_cost_eur
        assert plans[0].total_energy_w == plans[1].total_energy_w

    @pytest.mark.parametrize("layout", [dict(jobs=1, shards=1),
                                        dict(jobs=1, shards=5),
                                        dict(jobs=2, shards=3)])
    def test_study_bit_identical_for_any_layout(self, layout):
        from repro.study.runner import run_study

        spec = _demo_network_study()
        inline = run_study(spec).table.long()
        routed = run_study(spec, **layout).table.long()
        # Infeasible budget cells are NaN rows, and NaN != NaN — compare
        # columns NaN-aware but otherwise bitwise.
        assert set(inline) == set(routed)
        for column, values in inline.items():
            got = routed[column]
            if all(isinstance(v, (int, float)) for v in values):
                assert np.array_equal(np.asarray(values, dtype=np.float64),
                                      np.asarray(got, dtype=np.float64),
                                      equal_nan=True), column
            else:
                assert values == got, column

    def test_study_bit_identical_through_distributed_merge(self, tmp_path):
        # The distributed row of the parity matrix: a 2-worker manifest
        # split, merged back, against the same inline reference — the CRN
        # contract extends across machine boundaries (NaN rows included:
        # the 0.0 budget cells are infeasible).
        from repro.study import (
            RunJournal,
            StudyStore,
            merge_manifests,
            run_shard_slice,
            run_study,
        )

        spec = _demo_network_study()
        inline = run_study(spec, shards=3, journal=RunJournal(None)).table
        manifests = []
        for worker in range(2):
            store = StudyStore(maxsize=8,
                               cache_dir=tmp_path / f"worker{worker}")
            manifests.append(run_shard_slice(
                spec, worker, 2, store, shards=3,
                journal=RunJournal(None)).manifest_path)
        merged = merge_manifests(spec, manifests).table
        assert set(inline.long()) == set(merged.long())
        for column, values in inline.long().items():
            got = merged.long()[column]
            if all(isinstance(v, (int, float)) for v in values):
                assert np.array_equal(np.asarray(values, dtype=np.float64),
                                      np.asarray(got, dtype=np.float64),
                                      equal_nan=True), column
            else:
                assert values == got, column
