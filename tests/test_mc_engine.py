"""Tests for the vectorized Monte-Carlo shadowing engine.

The contract mirrors the radio and solar batch layers: with the step-loop
kernel oracle substituted (the ``reference_kernels`` fixture) the batched
engine is trial-for-trial **bit-identical** to the per-trial scalar oracle
(same generator seeding, same draw order, elementwise-identical
arithmetic), across uniform and irregular position grids, zero sigma, and
single-position profiles.  The fused kernel matches within 1e-9 while
preserving the CRN prefix properties bitwise (kernel-level coverage lives in
``tests/test_kernels.py``).
"""

import hashlib
import threading
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.optimize.mc as mc
from oracles.isd import robust_max_isd_scan
from oracles.mc import (
    outage_matrix_scalar,
    sample,
    sample_batch,
    trial_generators,
)
from repro.corridor.layout import CorridorLayout
from repro.errors import ConfigurationError
from repro.optimize.mc import outage_matrix, wilson_interval
from repro.optimize.robustness import robust_max_isd
from repro.propagation.fading import LogNormalShadowing
from repro.radio.batch import evaluate_scenarios
from repro.radio.link import SnrProfile, compute_snr_profile
from repro.scenario.spec import Scenario

STUDIES_DIR = Path(__file__).resolve().parents[1] / "studies"


def _profiles(isds_n=((1250.0, 1), (2400.0, 8), (500.0, 0)), resolution_m=10.0):
    layouts = [CorridorLayout.with_uniform_repeaters(isd, n) if n
               else CorridorLayout.conventional() for isd, n in isds_n]
    return evaluate_scenarios(
        [Scenario(layout=lo, resolution_m=resolution_m) for lo in layouts])


def _synthetic_profile(positions, snr):
    """Profile on an arbitrary (possibly irregular) position grid."""
    positions = np.asarray(positions, dtype=float)
    snr = np.asarray(snr, dtype=float)
    return SnrProfile(positions_m=positions,
                      source_rsrp_dbm=snr[None, :],
                      total_signal_dbm=snr,
                      total_noise_dbm=np.zeros_like(snr),
                      snr_db=snr)


def _uniform_traces():
    model = LogNormalShadowing(sigma_db=4.0)
    pos = np.arange(0.0, 500.0, 5.0)
    scalar = np.stack([sample(model, pos, rng)
                       for rng in trial_generators(7, 20)])
    return model, pos, scalar


class TestSampleBatch:
    def test_matches_scalar_uniform_grid(self):
        model, pos, scalar = _uniform_traces()
        batch = sample_batch(model, pos, trial_generators(7, 20))
        np.testing.assert_allclose(batch, scalar, rtol=0.0, atol=1e-9)

    def test_step_loop_kernel_bit_identical(self, reference_kernels):
        model, pos, scalar = _uniform_traces()
        reference = sample_batch(model, pos, trial_generators(7, 20))
        assert np.array_equal(reference, scalar)

    # (Irregular-grid scalar equality over the shared seed sweep lives in
    # tests/test_engine_parity.py.)

    def test_single_position(self):
        model = LogNormalShadowing(sigma_db=4.0)
        pos = np.array([100.0])
        batch = sample_batch(model, pos, trial_generators(3, 8))
        assert batch.shape == (8, 1)
        for t, rng in enumerate(trial_generators(3, 8)):
            assert np.array_equal(batch[t], sample(model, pos, rng))

    def test_zero_sigma_gives_zeros(self):
        model = LogNormalShadowing(sigma_db=0.0)
        batch = sample_batch(model, np.arange(0.0, 100.0, 10.0),
                             trial_generators(0, 4))
        assert batch.shape == (4, 10)
        assert np.all(batch == 0.0)

    def test_coefficients_cached_per_spacing_fingerprint(self):
        model = LogNormalShadowing(sigma_db=4.0)
        pos = np.arange(0.0, 400.0, 5.0)
        first = model.coefficients(pos)
        again = model.coefficients(pos)
        assert first[0] is again[0] and first[1] is again[1]
        # Same spacings at a different origin share the entry too.
        shifted = model.coefficients(pos + 123.0)
        assert shifted[0] is first[0]
        # Cached arrays are read-only.
        with pytest.raises(ValueError):
            first[0][0] = 0.0

    def test_trial_generators_are_reproducible(self):
        a = [rng.standard_normal(3) for rng in trial_generators(5, 4)]
        b = [rng.standard_normal(3) for rng in trial_generators(5, 4)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        # Distinct trials get distinct streams.
        assert not np.array_equal(a[0], a[1])


def _oracle_normals(seed, trials, width):
    return np.array([rng.standard_normal(width)
                     for rng in trial_generators(seed, trials)])


class TestTrialStreams:
    """The one-pass seeding draws exactly ``default_rng([seed, t])``'s
    normals, for seeds of one to four 32-bit words (with the trial's word,
    entropy up to one word past the 4-word pool) and longer."""

    @pytest.mark.parametrize("width", [1, 239])
    @pytest.mark.parametrize("trials", [1, 7, 100, 300])
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 + 5,
                                      2**64 - 1, 2**96 + 3])
    def test_bit_identical_to_default_rng(self, seed, trials, width):
        z = mc._fresh_normals(seed, trials, width)
        assert z.shape == (trials, width)
        assert np.array_equal(z, _oracle_normals(seed, trials, width))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**160),
           trials=st.integers(min_value=1, max_value=12),
           width=st.integers(min_value=1, max_value=16))
    def test_bit_identical_on_any_seed(self, seed, trials, width):
        assert np.array_equal(mc._fresh_normals(seed, trials, width),
                              _oracle_normals(seed, trials, width))

    def test_negative_seed_raises_value_error(self):
        with pytest.raises(ValueError):
            np.random.default_rng([-1, 0])
        with pytest.raises(ValueError):
            mc._fresh_normals(-1, 4, 3)
        with pytest.raises(ValueError):
            outage_matrix(_profiles(), trials=4, seed=-1)


IRREGULAR_PROFILES = [
    _synthetic_profile([0.0, 3.0, 10.0, 200.0], [30.0, 29.5, 31.0, 28.0]),
    _synthetic_profile([0.0, 50.0], [35.0, 27.0]),
    _synthetic_profile([42.0], [29.5]),
]
IRREGULAR_SHADOWING = LogNormalShadowing(sigma_db=5.0, decorrelation_m=20.0)


class TestOutageMatrix:
    # Ragged-grid scalar-vs-batched bit-identity over the shared seed sweep
    # lives in tests/test_engine_parity.py.

    def test_irregular_positions_supported(self):
        scalar = outage_matrix_scalar(IRREGULAR_PROFILES, IRREGULAR_SHADOWING,
                                      64, 9)
        batched = outage_matrix(IRREGULAR_PROFILES, IRREGULAR_SHADOWING,
                                trials=64, seed=9)
        np.testing.assert_allclose(batched.min_snr_db, scalar,
                                   rtol=0.0, atol=1e-9)

    def test_irregular_positions_bit_identical_on_step_loop_kernel(
            self, reference_kernels):
        scalar = outage_matrix_scalar(IRREGULAR_PROFILES, IRREGULAR_SHADOWING,
                                      64, 9)
        reference = outage_matrix(IRREGULAR_PROFILES, IRREGULAR_SHADOWING,
                                  trials=64, seed=9)
        assert np.array_equal(reference.min_snr_db, scalar)

    def test_zero_sigma_reduces_to_deterministic(self):
        profiles = _profiles()
        matrix = outage_matrix(profiles, LogNormalShadowing(sigma_db=0.0),
                               trials=6)
        scalar = outage_matrix_scalar(
            profiles, LogNormalShadowing(sigma_db=0.0), 6, 2022)
        assert np.array_equal(matrix.min_snr_db, scalar)
        for c, profile in enumerate(profiles):
            assert np.all(matrix.min_snr_db[c] == profile.min_snr_db)

    def test_common_random_numbers_prefix_property(self):
        # A candidate's trials do not depend on which other candidates are
        # stacked with it: every candidate consumes a prefix of the same
        # per-trial streams.
        profiles = _profiles()
        joint = outage_matrix(profiles, trials=25, seed=4)
        for c, profile in enumerate(profiles):
            alone = outage_matrix([profile], trials=25, seed=4)
            assert np.array_equal(alone.min_snr_db[0], joint.min_snr_db[c])

    def test_z_cache_prefix_reuse_bit_identical(self):
        # Evaluations at different grid lengths under one (seed, trials)
        # share the memoized standard-normal matrix (prefix views); results
        # must stay within 1e-9 of the scalar path in any call order.
        profiles = _profiles()
        small_first = outage_matrix([profiles[2]], trials=15, seed=21)
        big = outage_matrix(profiles, trials=15, seed=21)
        scalar = outage_matrix_scalar(profiles, LogNormalShadowing(), 15, 21)
        np.testing.assert_allclose(big.min_snr_db, scalar,
                                   rtol=0.0, atol=1e-9)
        # The fused kernel preserves the prefix property bitwise.
        assert np.array_equal(small_first.min_snr_db[0], big.min_snr_db[2])

    def test_z_cache_prefix_reuse_on_step_loop_kernel(self,
                                                      reference_kernels):
        profiles = _profiles()
        outage_matrix([profiles[2]], trials=15, seed=21)
        big_ref = outage_matrix(profiles, trials=15, seed=21)
        scalar = outage_matrix_scalar(profiles, LogNormalShadowing(), 15, 21)
        assert np.array_equal(big_ref.min_snr_db, scalar)

    def test_seed_changes_samples(self):
        profiles = _profiles()[:1]
        a = outage_matrix(profiles, trials=10, seed=1)
        b = outage_matrix(profiles, trials=10, seed=2)
        assert not np.array_equal(a.min_snr_db, b.min_snr_db)

    def test_quantile_and_ci(self):
        matrix = outage_matrix(_profiles(), trials=50)
        medians = matrix.quantile(0.5)
        assert medians.shape == (3,)
        low, high = matrix.ci95()
        assert np.all(low >= 0.0) and np.all(high <= 1.0)
        assert np.all(low <= matrix.outage_probability)
        assert np.all(matrix.outage_probability <= high)

    def test_matrix_eq_hash_and_readonly(self):
        profiles = _profiles()[:1]
        a = outage_matrix(profiles, trials=10, seed=1)
        b = outage_matrix(profiles, trials=10, seed=1)
        assert a == b and hash(a) == hash(b)
        assert a != outage_matrix(profiles, trials=10, seed=2)
        with pytest.raises(ValueError):
            a.min_snr_db[0, 0] = 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            outage_matrix([], trials=10)
        with pytest.raises(ConfigurationError):
            outage_matrix(_profiles(), trials=0)
        empty = _synthetic_profile(np.empty(0), np.empty(0))
        with pytest.raises(ConfigurationError):
            outage_matrix([empty], trials=5)


class TestMinSnrMatrix:
    """One call over many (profile, shadowing) candidates of one trial
    stream equals one :func:`outage_matrix` call per candidate."""

    SHADOWINGS = [LogNormalShadowing(sigma_db=sigma, decorrelation_m=d)
                  for sigma, d in ((4.0, 50.0), (0.0, 50.0), (2.0, 25.0),
                                   (6.0, 0.05), (4.0, 100.0))]

    def _assert_rows_equal_one_call_per_candidate(self):
        profiles = _profiles() + _profiles(resolution_m=25.0)
        pairs = [(profile, shadowing) for profile in profiles
                 for shadowing in self.SHADOWINGS]
        joint = mc.min_snr_matrix([p for p, _ in pairs],
                                  [s for _, s in pairs], 12, 5)
        assert joint.shape == (len(pairs), 12) and not joint.flags.writeable
        for c, (profile, shadowing) in enumerate(pairs):
            alone = outage_matrix([profile], shadowing, trials=12, seed=5)
            assert np.array_equal(alone.min_snr_db[0], joint[c]), c

    def test_rows_equal_one_call_per_candidate(self):
        self._assert_rows_equal_one_call_per_candidate()

    def test_rows_equal_one_call_per_candidate_on_step_loop_kernel(
            self, reference_kernels):
        self._assert_rows_equal_one_call_per_candidate()

    def test_step_loop_kernel_equals_the_scalar_walk(self, reference_kernels):
        profiles = _profiles()
        joint = mc.min_snr_matrix(profiles * 2, [self.SHADOWINGS[0]] * 3
                                  + [self.SHADOWINGS[2]] * 3, 9, 1)
        for c, profile in enumerate(profiles * 2):
            shadowing = self.SHADOWINGS[0 if c < 3 else 2]
            scalar = outage_matrix_scalar([profile], shadowing, 9, 1)
            assert np.array_equal(scalar[0], joint[c])

    @pytest.mark.parametrize("shadowings", [2, 4])
    def test_shadowing_count_must_match(self, shadowings):
        with pytest.raises(ConfigurationError, match="as many shadowings"):
            mc.min_snr_matrix(_profiles(), self.SHADOWINGS[:shadowings],
                              4, 0)

    @pytest.mark.parametrize("trials", [0, -2])
    def test_trials_must_be_positive(self, trials):
        with pytest.raises(ConfigurationError, match="trials"):
            mc.min_snr_matrix(_profiles(), self.SHADOWINGS[:3], trials, 0)

    def test_profiles_must_not_be_empty(self):
        with pytest.raises(ConfigurationError, match="at least one profile"):
            mc.min_snr_matrix([], [], 4, 0)
        empty = _synthetic_profile(np.empty(0), np.empty(0))
        with pytest.raises(ConfigurationError, match="at least one position"):
            mc.min_snr_matrix([empty], self.SHADOWINGS[:1], 4, 0)

    def test_a_robustness_grid_job_validates_each_grid_once(self, monkeypatch):
        # 27 lanes over 3 profiles: each grid's sort check runs once, not
        # once per lane, and the matrix keeps its bytes (sha256 recorded
        # when every lane validated its own grid).
        import repro.propagation.fading as fading
        from repro.study import load_study
        from repro.study.engines import run_cases

        validated, matrices = [], []
        real_validate, real_matrix = fading._validated_positions, mc.min_snr_matrix

        def count(positions_m):
            validated.append(positions_m)
            return real_validate(positions_m)

        def keep(*args):
            matrices.append(real_matrix(*args))
            return matrices[-1]

        monkeypatch.setattr(fading, "_validated_positions", count)
        monkeypatch.setattr(mc, "min_snr_matrix", keep)
        spec = load_study(STUDIES_DIR / "robustness_grid.yaml")
        cases = spec.cases()
        run_cases("mc", cases, [spec.case_seed(i) for i in range(len(cases))])
        assert len(validated) <= 3
        [matrix] = matrices
        assert matrix.shape == (27, 100)
        assert hashlib.sha256(matrix.tobytes()).hexdigest() == (
            "de172a6f201f3bf517fd84aff5402288e7dd8eef0055fd1726694af68692fc59")

    def test_no_shadowing_draws_no_normals(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("drew normals for sigma 0")

        monkeypatch.setattr(mc, "_standard_normal_matrix", refuse)
        profiles = _profiles()
        mins = mc.min_snr_matrix(profiles, [self.SHADOWINGS[1]] * 3, 4, 0)
        for c, profile in enumerate(profiles):
            assert np.all(mins[c] == np.min(profile.snr_db))


#: Ragged grids (two resolutions, two ISDs), sigma 0 among the draws, two
#: decorrelations, mixed trial counts and a threshold axis.
MC_ADAPTER_TEXT = """
name: mc-adapter-oracle
engine: mc
seed: 13
seed_mode: {seed_mode}
axes:
  trials: [8, 16]
  sigma_db: [0.0, 3.0, 5.0]
  decorrelation_m: [20.0, 80.0]
  resolution_m: [25.0, 40.0]
  isd_m: [1800.0, 2400.0]
  threshold_db: [24.0, 29.0]
fixed:
  n_repeaters: 4
"""


def per_draw_mc(cases, seeds):
    """:func:`oracles.mc.per_draw_mc` (one :func:`outage_matrix` call per
    shadowing draw) on unresolved cases."""
    from oracles import mc as oracle_mc
    from repro.study.engines import STUDY_ENGINES

    adapter = STUDY_ENGINES["mc"]
    return oracle_mc.per_draw_mc([adapter.resolve(case) for case in cases],
                                 seeds)


def bits(rows):
    """Rows as exactly comparable values (``repr`` round-trips floats)."""
    return [[(name, repr(value)) for name, value in row.items()]
            for row in rows]


class TestMcAdapterOracle:
    """The ``mc`` adapter's one kernel call per stream equals, bit for
    bit, one :func:`outage_matrix` call per shadowing draw."""

    @pytest.mark.parametrize("seed_mode", ["shared", "per-case"])
    def test_rows_equal_per_draw_calls(self, seed_mode):
        from repro.study import parse_study
        from repro.study.engines import run_cases

        spec = parse_study(MC_ADAPTER_TEXT.format(seed_mode=seed_mode))
        cases = spec.cases()
        seeds = [spec.case_seed(i) for i in range(len(cases))]
        oracle = bits(per_draw_mc(cases, seeds))
        assert bits(run_cases("mc", cases, seeds)) == oracle
        # Shuffled subsets: each stream's lanes and their order change,
        # every row stays the same.
        rng = np.random.default_rng(17)
        for size in (1, 5, 23, len(cases)):
            pick = rng.permutation(len(cases))[:size]
            rows = run_cases("mc", [cases[i] for i in pick],
                             [seeds[i] for i in pick])
            assert bits(rows) == [oracle[i] for i in pick], size


class TestStandardNormalMemo:
    """The (seed, trials) memo serves shorter grids as prefix views of the
    longest matrix drawn for the key, and redraws the key for a longer one."""

    @pytest.fixture
    def fresh_draws(self, monkeypatch):
        made = []
        draw = mc._fresh_normals

        def spy(seed, trials, width):
            made.append(trials)
            return draw(seed, trials, width)

        monkeypatch.setattr(mc, "_fresh_normals", spy)
        monkeypatch.setattr(mc, "_Z_CACHE", OrderedDict())
        return made

    @pytest.mark.parametrize("seed", [0, 3, 2022])
    def test_prefix_views_equal_one_fresh_draw(self, fresh_draws, seed):
        widths = (5, 13, 13, 40, 7)
        parts = [mc._standard_normal_matrix(seed, 6, p) for p in widths]
        fresh = np.array([rng.standard_normal(40)
                          for rng in trial_generators(seed, 6)])
        for width, part in zip(widths, parts):
            assert np.array_equal(part, fresh[:, :width])
            assert not part.flags.writeable
        # Widths 5, 13 and 40 draw; the repeated 13 and the 7 are views.
        assert fresh_draws == [6, 6, 6]

    def test_oversized_matrix_leaves_the_entry_intact(self, fresh_draws,
                                                      monkeypatch):
        mc._standard_normal_matrix(1, 4, 10)
        monkeypatch.setattr(mc, "_Z_CACHE_MAX_BYTES", 4 * 20 * 8)
        wide = mc._standard_normal_matrix(1, 4, 30)
        assert mc._Z_CACHE[(1, 4)].shape == (4, 10)
        fresh = np.array([rng.standard_normal(30)
                          for rng in trial_generators(1, 4)])
        assert np.array_equal(wide, fresh)
        assert np.array_equal(mc._standard_normal_matrix(1, 4, 8),
                              fresh[:, :8])
        assert fresh_draws == [4, 4]

    def test_concurrent_extensions_agree(self, fresh_draws):
        fresh = np.array([rng.standard_normal(64)
                          for rng in trial_generators(9, 8)])
        results = {}

        def draw(width):
            results[width] = mc._standard_normal_matrix(9, 8, width)

        threads = [threading.Thread(target=draw, args=(w,))
                   for w in range(8, 65, 8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for width, matrix in results.items():
            assert np.array_equal(matrix, fresh[:, :width])

    def test_cancel_hook_runs_draw_the_stream_twice(self, fresh_draws):
        # Under a cancel hook the first attempt is one shard (ISD 2000 and
        # 2200) and the next one starts at ISD 2400, whose longer grid
        # redraws the stream once; a second run reads views only.
        from repro.study import load_study, run_study

        spec = load_study(STUDIES_DIR / "robustness_grid.yaml")
        for _ in range(2):
            report = run_study(spec, cancel=lambda: False)
            assert not report.partial
        assert fresh_draws == [100, 100]


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        for k in (0, 1, 25, 49, 50):
            low, high = wilson_interval(k, 50)
            assert low <= k / 50 <= high
            assert 0.0 <= low and high <= 1.0

    def test_bounds_stay_in_unit_interval(self):
        # Float rounding pushes the raw Wilson bounds past [0, 1] for many
        # trial counts; the clamp must hold at both saturated extremes.
        for n in (1, 16, 27, 100, 4999):
            low, high = wilson_interval(n, n)
            assert high <= 1.0 and low >= 0.0
            low, high = wilson_interval(0, n)
            assert low >= 0.0 and high <= 1.0

    def test_tightens_with_trials(self):
        l1, h1 = wilson_interval(5, 20)
        l2, h2 = wilson_interval(50, 200)
        assert h2 - l2 < h1 - l1

    def test_vectorized(self):
        low, high = wilson_interval(np.array([0, 10, 20]), 20)
        assert low.shape == (3,)
        assert np.all(low < high)

    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigurationError):
            wilson_interval(1, 0)


class TestSingleProfileOutage:
    PROFILE = compute_snr_profile(
        CorridorLayout.with_uniform_repeaters(1250.0, 1), resolution_m=10.0)

    @pytest.fixture
    def scalar(self):
        return outage_matrix_scalar([self.PROFILE], LogNormalShadowing(), 30,
                                    2022)[0]

    def test_matches_the_scalar_walk(self, scalar):
        batched = outage_matrix([self.PROFILE], trials=30)
        assert batched.outage_counts[0] == int(np.count_nonzero(
            scalar < batched.threshold_db))
        np.testing.assert_allclose(batched.min_snr_db[0], scalar,
                                   rtol=0.0, atol=1e-9)

    def test_step_loop_kernel_bit_identical(self, scalar, reference_kernels):
        reference = outage_matrix([self.PROFILE], trials=30)
        assert np.array_equal(reference.min_snr_db[0], scalar)

    def test_quantile_and_ci95(self):
        matrix = outage_matrix([self.PROFILE], trials=40)
        samples = matrix.min_snr_db[0]
        assert samples.shape == (40,)
        assert matrix.quantile(0.5)[0] == pytest.approx(np.median(samples))
        low, high = matrix.quantile([0.1, 0.9])[:, 0]
        assert samples.min() <= low <= high <= samples.max()
        ci_low, ci_high = matrix.ci95()
        assert ci_low[0] <= matrix.outage_probability[0] <= ci_high[0]


class TestRobustMaxIsdBisection:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("sigma_db", (2.0, 4.0))
    def test_bisection_equals_scan_seed_sweep(self, seed, sigma_db):
        shadowing = LogNormalShadowing(sigma_db=sigma_db)
        kwargs = dict(target_outage=0.1, shadowing=shadowing, trials=40,
                      resolution_m=10.0, isd_max_m=1500.0, seed=seed)
        assert robust_max_isd(1, **kwargs) == robust_max_isd_scan(1, **kwargs)

    @pytest.mark.parametrize("seed", range(3))
    def test_bisection_equals_scan_multi_repeater(self, seed):
        kwargs = dict(target_outage=0.3,
                      shadowing=LogNormalShadowing(sigma_db=2.0), trials=30,
                      resolution_m=10.0, isd_max_m=1200.0, seed=seed)
        assert robust_max_isd(2, **kwargs) == robust_max_isd_scan(2, **kwargs)

    def test_step_loop_kernel_equals_fused(self):
        from oracles import kernels as oracle_kernels

        kwargs = dict(target_outage=0.1,
                      shadowing=LogNormalShadowing(sigma_db=4.0), trials=30,
                      resolution_m=10.0, isd_max_m=1500.0, seed=3)
        fused = robust_max_isd(1, **kwargs)
        with oracle_kernels.substituted():
            assert robust_max_isd(1, **kwargs) == fused

    @pytest.mark.parametrize("kwargs", (
        # N=8 at the registered maxima has no margin; a 1% target under
        # harsh shadowing is unreachable on any candidate.
        dict(target_outage=0.01, shadowing=LogNormalShadowing(sigma_db=6.0),
             trials=20, resolution_m=10.0, isd_max_m=1700.0),
        # 8 repeaters need more than 500 m: the candidate ladder is empty.
        dict(isd_max_m=500.0, shadowing=LogNormalShadowing(sigma_db=2.0)),
    ), ids=("unreachable-target", "empty-ladder"))
    @pytest.mark.parametrize("search", (robust_max_isd, robust_max_isd_scan),
                             ids=("bisection", "scan"))
    def test_infeasible_raises_infeasible_error(self, search, kwargs):
        from repro.errors import InfeasibleError

        with pytest.raises(InfeasibleError):
            search(8, **kwargs)

    @pytest.mark.parametrize("sigma_db", (1.0, 2.0))
    def test_scores_only_the_probed_profiles(self, monkeypatch, sigma_db):
        import math

        import repro.optimize.robustness as robustness
        from repro.optimize.isd import isd_candidates

        evaluated = []

        def spy(scenarios, **kwargs):
            scenarios = list(scenarios)
            evaluated.extend(scenarios)
            return evaluate_scenarios(scenarios, **kwargs)

        monkeypatch.setattr(robustness, "evaluate_scenarios", spy)
        kwargs = dict(target_outage=0.1,
                      shadowing=LogNormalShadowing(sigma_db=sigma_db),
                      trials=40, resolution_m=10.0, isd_max_m=3500.0)
        found = robust_max_isd(1, **kwargs)
        ladder = isd_candidates(1, isd_max_m=3500.0)
        # The bracket holds (no full-scan fallback), so only the bracket
        # and the bisection probes were evaluated.
        assert found[0] > ladder[0]
        assert len(evaluated) <= 2 + math.ceil(math.log2(ladder.size))
        assert found == robust_max_isd_scan(1, **kwargs)


class TestRobustnessGridExperiment:
    def test_grid_shape_and_monotone_sigma(self):
        from dataclasses import replace

        from repro.study import load_study, run_study

        spec = replace(load_study(STUDIES_DIR / "robustness_grid.yaml"), axes=(
            ("sigma_db", (1.0, 4.0)),
            ("decorrelation_m", (50.0,)),
            ("isd_m", (1000.0, 1250.0)),
        )).with_overrides(n_repeaters=1, trials=40)
        table = run_study(spec).table
        assert len(table) == 2 * 1 * 2
        columns = table.wide()
        by_cell = {(sigma, isd): outage for sigma, isd, outage in zip(
            columns["sigma_db"], columns["isd_m"],
            columns["outage_probability"])}
        # More shadowing, more outage (common random numbers per cell).
        for isd in (1000.0, 1250.0):
            assert by_cell[(1.0, isd)] <= by_cell[(4.0, isd)]
        # Larger ISD, more outage at fixed sigma.
        for sigma in (1.0, 4.0):
            assert by_cell[(sigma, 1000.0)] <= by_cell[(sigma, 1250.0)]

    def test_noise_ablation_robust_overlay(self):
        from repro.experiments.ablations import run_noise_ablation

        result = run_noise_ablation(n_max=1, resolution_m=10.0, sigmas=(4.0,),
                                    trials=20, robust_target_outage=0.2)
        assert result.robust is not None
        for per_model in result.robust.values():
            # Robust ISD backs off the deterministic maximum.
            assert per_model[4.0] < 1300.0
        assert "Robust max ISD" in result.table()

    def test_noise_ablation_rejects_bad_robust_inputs(self):
        # Parameter errors must propagate, never masquerade as NaN
        # "infeasible" cells (only InfeasibleError is treated as a finding).
        from repro.experiments.ablations import run_noise_ablation

        with pytest.raises(ConfigurationError):
            run_noise_ablation(n_max=1, resolution_m=10.0, sigmas=(-2.0,))
        with pytest.raises(ConfigurationError):
            run_noise_ablation(n_max=1, resolution_m=10.0, sigmas=(4.0,),
                               trials=0)
        with pytest.raises(ConfigurationError):
            run_noise_ablation(n_max=1, resolution_m=10.0, sigmas=(4.0,),
                               robust_target_outage=1.5)

    def test_cli_flags(self, capsys):
        from repro.cli import main

        assert main(["abl-noise", "--trials", "8", "--sigmas", "4",
                     "--quiet"]) == 0
        with pytest.raises(SystemExit):
            main(["abl-noise", "--sigmas", "abc"])
        with pytest.raises(SystemExit):
            main(["abl-noise", "--trials", "0"])
