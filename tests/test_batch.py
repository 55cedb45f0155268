"""Tests for the batched Eq. (2) engine and its consumers.

The central guarantee: every profile out of :func:`evaluate_scenarios` is
bit-identical to the scalar oracle :func:`oracles.radio.compute_snr_profile`
on the same scenario,
and the refactored sweep reproduces the original (seed) implementation
exactly.
"""

from dataclasses import replace

import numpy as np
import pytest

from oracles.isd import max_isd_scan, sweep_max_isd_scan
from oracles.radio import compute_snr_profile
from repro.corridor.layout import CorridorLayout
from repro.errors import ConfigurationError, InfeasibleError
from repro.optimize.isd import isd_candidates, max_isd_for_n, sweep_max_isd
from repro.radio.batch import evaluate_scenarios, min_snr_batch
from repro.radio.link import LinkParams
from repro.radio.noise import RepeaterNoiseModel
from repro.scenario import ProfileCache, Scenario

PROFILE_FIELDS = ("positions_m", "source_rsrp_dbm", "total_signal_dbm",
                  "total_noise_dbm", "snr_db")

#: Seed-implementation output of sweep_max_isd(n_max=10, resolution_m=1.0):
#: the acceptance reference for the batched engine.
SEED_MAX_ISD_BY_N = {0: 900.0, 1: 1250.0, 2: 1450.0, 3: 1600.0, 4: 1800.0,
                     5: 2000.0, 6: 2200.0, 7: 2400.0, 8: 2600.0, 9: 2800.0,
                     10: 3000.0}


def assert_profiles_equal(a, b):
    for name in PROFILE_FIELDS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape, name
        assert np.array_equal(x, y), name


class TestBatchBitIdentity:
    # The scalar-vs-batched bit-identity matrix (all noise models, mixed
    # grids) lives in tests/test_engine_parity.py alongside the other three
    # engines; this class keeps the engine-specific behaviours.

    def test_eirp_perturbations_share_geometry(self):
        base = LinkParams()
        scenarios = [
            Scenario.uniform(1800.0, 4, resolution_m=2.0, link=replace(
                base, hp_eirp_dbm=base.hp_eirp_dbm + hp_off,
                lp_eirp_dbm=base.lp_eirp_dbm + lp_off))
            for hp_off in (-3.0, 0.0, 3.0) for lp_off in (0.0, 1.0)]
        for sc, batch in zip(scenarios, evaluate_scenarios(scenarios)):
            ref = compute_snr_profile(sc.layout, sc.link, resolution_m=2.0)
            assert_profiles_equal(batch, ref)

    def test_duplicate_scenarios_share_result(self):
        sc = Scenario.uniform(1200.0, 2, resolution_m=5.0)
        twin = Scenario.uniform(1200.0, 2, resolution_m=5.0)
        profiles = evaluate_scenarios([sc, twin])
        assert profiles[0] is profiles[1]

    def test_jobs_sharding_identical(self):
        scenarios = [Scenario.uniform(float(isd), 2, resolution_m=5.0)
                     for isd in isd_candidates(2, isd_step_m=100.0,
                                               isd_max_m=2000.0)]
        serial = evaluate_scenarios(scenarios)
        sharded = evaluate_scenarios(scenarios, jobs=4)
        for a, b in zip(serial, sharded):
            assert_profiles_equal(a, b)

    def test_rejects_bad_jobs(self):
        with pytest.raises(ConfigurationError):
            evaluate_scenarios([Scenario.uniform(1000.0, 0)], jobs=0)

    def test_empty_batch(self):
        assert evaluate_scenarios([]) == []

    def test_cache_integration(self):
        cache = ProfileCache(maxsize=32)
        scenarios = [Scenario.uniform(isd, 1, resolution_m=5.0)
                     for isd in (1000.0, 1200.0)]
        first = evaluate_scenarios(scenarios, cache=cache)
        assert cache.misses == len(scenarios)
        second = evaluate_scenarios(scenarios, cache=cache)
        for a, b in zip(first, second):
            assert a is b
        assert cache.hits == len(scenarios)

    def test_min_snr_batch_matches_profiles(self):
        scenarios = [Scenario.uniform(isd, n, resolution_m=5.0)
                     for n in (0, 4) for isd in (1000.0, 2000.0)]
        snrs = min_snr_batch(scenarios)
        profiles = evaluate_scenarios(scenarios)
        assert snrs.tolist() == [p.min_snr_db for p in profiles]


class TestSweepSeedEquality:
    """Acceptance: the batched engine reproduces the seed sweep exactly."""

    @pytest.fixture(scope="class")
    def default_sweep(self):
        return sweep_max_isd(n_max=10, resolution_m=1.0)

    @pytest.fixture(scope="class")
    def scan_sweep(self):
        return sweep_max_isd_scan(n_max=10, resolution_m=1.0)

    def test_default_matches_seed_isds(self, default_sweep):
        assert default_sweep.max_isd_by_n == SEED_MAX_ISD_BY_N

    def test_bisection_equals_scan(self, default_sweep, scan_sweep):
        assert default_sweep.max_isd_by_n == scan_sweep.max_isd_by_n
        assert default_sweep.min_snr_by_n == scan_sweep.min_snr_by_n

    def test_min_snr_matches_scalar_recomputation(self, default_sweep):
        for n, isd in default_sweep.max_isd_by_n.items():
            layout = CorridorLayout.with_uniform_repeaters(isd, n)
            ref = compute_snr_profile(layout, default_sweep.link).min_snr_db
            assert default_sweep.min_snr_by_n[n] == ref

    def test_fronthaul_bisection_equals_scan(self):
        link = LinkParams(repeater_noise_model=RepeaterNoiseModel.FRONTHAUL_STAR)
        fast = sweep_max_isd(n_max=6, link=link, resolution_m=4.0,
                             include_zero=False)
        slow = sweep_max_isd_scan(n_max=6, link=link, resolution_m=4.0,
                                  include_zero=False)
        assert fast.max_isd_by_n == slow.max_isd_by_n
        assert fast.min_snr_by_n == slow.min_snr_by_n

    def test_single_n_bisection_equals_scan(self):
        fast = max_isd_for_n(3, resolution_m=2.0, shadowing_margin_db=2.0)
        slow = max_isd_scan(3, resolution_m=2.0, shadowing_margin_db=2.0)
        assert fast == slow

    def test_bisection_infeasible(self):
        with pytest.raises(InfeasibleError):
            max_isd_for_n(1, threshold_db=80.0, resolution_m=5.0)

    def test_scan_infeasible(self):
        with pytest.raises(InfeasibleError):
            max_isd_scan(1, threshold_db=80.0, resolution_m=5.0)

    def test_jobs_sweep_identical(self, default_sweep):
        parallel = sweep_max_isd(n_max=10, resolution_m=1.0, jobs=4)
        assert parallel.max_isd_by_n == default_sweep.max_isd_by_n
        assert parallel.min_snr_by_n == default_sweep.min_snr_by_n

    def test_cached_sweep_identical(self, default_sweep):
        cache = ProfileCache(maxsize=512)
        cold = sweep_max_isd(n_max=10, resolution_m=1.0, cache=cache)
        warm = sweep_max_isd(n_max=10, resolution_m=1.0, cache=cache)
        assert cold.min_snr_by_n == default_sweep.min_snr_by_n
        assert warm.min_snr_by_n == default_sweep.min_snr_by_n
        assert cache.hits > 0
