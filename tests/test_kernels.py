"""Kernel property suite — fused kernels vs. the step-loop oracles.

The parity matrix (``test_engine_parity.py``) compares whole engines; this
module attacks the kernels directly on adversarial inputs the engines never
quite produce in one run:

* chunk-boundary edges of the blocked AR(1) scan (``p`` below / exactly at /
  just past the chunk-length cap, ``p == 1``),
* irregular grids and zero spacings (``rho == 1`` / ``innovation == 0``),
* coefficient underflow forcing mid-block subdivision,
* bitwise prefix stability (the common-random-numbers contract),
* alone-vs-joint candidate grouping in the fused min-scan, also across
  shadowing draws (per-candidate first scales and chunk cuts),
* the hour-order summation helpers behind the fused SoC walk,
* the occupancy group scan on hand-worked lanes,
* the ``repro.kernels`` front door (the fused kernels, and nothing else).

Oracle-vs-fused tolerances: ``ar1_scan`` / ``ar1_min_scan`` are pinned to
1e-12 (far inside the engines' 1e-9 budget); ``soc_scan`` pins the PV sums
and integer counts exactly and the SoC-dependent floats at 1e-12 (the fused
walk runs in SoC units).  ``occupancy_scan`` has no step-loop oracle: it is
itself a step loop, pinned here by hand and end to end against the event
DES in ``test_engine_parity.py``.
"""

import inspect

import numpy as np
import pytest

import repro.kernels
from oracles import kernels as reference
from repro.kernels import KERNEL_NAMES, numpy_fused
from repro.kernels.numpy_fused import _hour_order_sum, _monthly_sums
from repro.propagation.fading import LogNormalShadowing


def _uniform_coeffs(p, rho=0.9, sigma=1.0):
    steps = max(p - 1, 1)
    innovation = sigma * np.sqrt(1.0 - rho * rho)
    return np.full(steps, rho), np.full(steps, innovation)


class TestAr1Scan:
    """Blocked prefix-product scan vs. the step loop."""

    @pytest.mark.parametrize("p", [1, 2, 63, 200, numpy_fused._BLOCK - 1,
                                   numpy_fused._BLOCK, numpy_fused._BLOCK + 1])
    def test_uniform_grid_chunk_edges(self, p):
        # p below / at / past the chunk-length cap, plus small sizes.
        rng = np.random.default_rng(p)
        z = rng.standard_normal((5, p))
        rho, innovation = _uniform_coeffs(p)
        fused = numpy_fused.ar1_scan(z, rho, innovation, 1.0)
        ref = reference.ar1_scan(z, rho, innovation, 1.0)
        np.testing.assert_allclose(fused, ref, rtol=0.0, atol=1e-12)

    def test_irregular_grid(self):
        rng = np.random.default_rng(3)
        p = 173
        rho = rng.uniform(0.0, 0.999, p - 1)
        innovation = np.sqrt(1.0 - rho * rho)
        z = rng.standard_normal((4, p))
        fused = numpy_fused.ar1_scan(z, rho, innovation, 1.0)
        ref = reference.ar1_scan(z, rho, innovation, 1.0)
        np.testing.assert_allclose(fused, ref, rtol=0.0, atol=1e-12)

    def test_zero_spacing_steps(self):
        # rho == 1, innovation == 0 mid-series: the sample repeats exactly.
        p = 90
        rho, innovation = _uniform_coeffs(p, rho=0.8)
        rho[40], innovation[40] = 1.0, 0.0
        rho[63], innovation[63] = 1.0, 0.0
        z = np.random.default_rng(8).standard_normal((3, p))
        fused = numpy_fused.ar1_scan(z, rho, innovation, 1.0)
        ref = reference.ar1_scan(z, rho, innovation, 1.0)
        assert np.array_equal(fused[:, 41], fused[:, 40])
        assert np.array_equal(fused[:, 64], fused[:, 63])
        np.testing.assert_allclose(fused, ref, rtol=0.0, atol=1e-12)

    def test_decorrelated_steps(self):
        # rho == 0 resets the recurrence; the scan must cut the chunk there
        # rather than divide by a zero prefix product.
        p = 100
        rho, innovation = _uniform_coeffs(p, rho=0.7)
        rho[10] = 0.0
        rho[70] = 0.0
        z = np.random.default_rng(9).standard_normal((3, p))
        fused = numpy_fused.ar1_scan(z, rho, innovation, 1.0)
        ref = reference.ar1_scan(z, rho, innovation, 1.0)
        assert np.all(np.isfinite(fused))
        np.testing.assert_allclose(fused, ref, rtol=0.0, atol=1e-12)

    def test_underflow_subdivides_chunk(self):
        # rho == 1e-5 drives the running prefix product below the rescaling
        # floor within a block; the scan must subdivide, not overflow.
        p = 200
        rho = np.full(p - 1, 1e-5)
        innovation = np.sqrt(1.0 - rho * rho)
        z = np.random.default_rng(10).standard_normal((2, p))
        fused = numpy_fused.ar1_scan(z, rho, innovation, 1.0)
        ref = reference.ar1_scan(z, rho, innovation, 1.0)
        assert np.all(np.isfinite(fused))
        np.testing.assert_allclose(fused, ref, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("p", [63, 64, 65, 200])
    def test_prefix_stable_bitwise(self, p):
        # The common-random-numbers contract: scanning a prefix of the grid
        # yields bitwise the prefix of the full scan.  The blocked scan cuts
        # chunks greedily left to right, so this holds exactly.
        rng = np.random.default_rng(p + 1)
        z = rng.standard_normal((6, p))
        rho = rng.uniform(0.1, 0.99, p - 1)
        innovation = np.sqrt(1.0 - rho * rho)
        full = numpy_fused.ar1_scan(z, rho, innovation, 1.0)
        for k in (1, p // 2, p - 1):
            part = numpy_fused.ar1_scan(z[:, :k], rho[:k - 1] if k > 1
                                        else rho[:1], innovation[:k - 1]
                                        if k > 1 else innovation[:1], 1.0)
            assert np.array_equal(part, full[:, :k]), k


class TestAr1MinScan:
    """Grouped shared-scan min reduction vs. the step loop."""

    def _ragged_problem(self, seed=4):
        # Mixed uniform/irregular candidate set with shared prefixes
        # (candidates 0-2 share a uniform grid ladder) and singletons.
        rng = np.random.default_rng(seed)
        sizes = np.array([120, 80, 120, 33, 1, 64])
        p_max = int(sizes.max())
        snr = np.full((sizes.size, p_max), np.inf)
        rho = np.zeros((sizes.size, p_max - 1))
        innovation = np.zeros_like(rho)
        shared_rho, shared_inn = _uniform_coeffs(p_max, rho=0.85, sigma=2.0)
        for c, pc in enumerate(sizes):
            snr[c, :pc] = rng.uniform(-5.0, 25.0, pc)
            if c < 3:
                rho[c, :pc - 1] = shared_rho[:pc - 1]
                innovation[c, :pc - 1] = shared_inn[:pc - 1]
            elif pc > 1:
                r = rng.uniform(0.0, 0.99, pc - 1)
                rho[c, :pc - 1] = r
                innovation[c, :pc - 1] = 2.0 * np.sqrt(1.0 - r * r)
        z = rng.standard_normal((40, p_max))
        return snr, rho, innovation, z, sizes

    def test_matches_reference(self):
        snr, rho, innovation, z, sizes = self._ragged_problem()
        fused = numpy_fused.ar1_min_scan(snr, rho, innovation, z, 2.0, sizes)
        ref = reference.ar1_min_scan(snr, rho, innovation, z, 2.0, sizes)
        np.testing.assert_allclose(fused, ref, rtol=0.0, atol=1e-12)

    def test_alone_equals_joint_bitwise(self):
        # Grouping candidates behind a shared scan must not change any
        # candidate's answer relative to solving it alone (the pruning
        # bound is exact, not approximate).
        snr, rho, innovation, z, sizes = self._ragged_problem()
        joint = numpy_fused.ar1_min_scan(snr, rho, innovation, z, 2.0, sizes)
        for c in range(sizes.size):
            alone = numpy_fused.ar1_min_scan(
                snr[c:c + 1], rho[c:c + 1], innovation[c:c + 1], z, 2.0,
                sizes[c:c + 1])
            assert np.array_equal(alone[0], joint[c]), c

    def test_single_position_candidate(self):
        snr = np.array([[3.0]])
        rho = np.zeros((1, 1))
        innovation = np.zeros((1, 1))
        z = np.random.default_rng(1).standard_normal((10, 1))
        fused = numpy_fused.ar1_min_scan(snr, rho, innovation, z, 1.5,
                                         np.array([1]))
        ref = reference.ar1_min_scan(snr, rho, innovation, z, 1.5,
                                     np.array([1]))
        np.testing.assert_allclose(fused, ref, rtol=0.0, atol=1e-12)

    def _draws_problem(self, seed=6, decorrelations=(25.0, 50.0, 0.05)):
        """One trial stream under several shadowing draws: ragged uniform
        grids x (sigma, decorrelation) pairs, one first scale per
        candidate.  The tiny decorrelation underflows the prefix product
        within a few steps, forcing a chunk cut every few positions."""
        rng = np.random.default_rng(seed)
        grids = [rng.uniform(-5.0, 25.0, size) for size in (97, 97, 60, 1)]
        draws = [(sigma, decorrelation) for sigma in (2.0, 6.0)
                 for decorrelation in decorrelations]
        lanes = [(grid, sigma, decorrelation) for grid in grids
                 for sigma, decorrelation in draws]
        sizes = np.array([grid.size for grid, _, _ in lanes])
        p_max = int(sizes.max())
        snr = np.full((len(lanes), p_max), np.inf)
        rho = np.zeros((len(lanes), p_max - 1))
        innovation = np.zeros_like(rho)
        for c, (grid, sigma, decorrelation) in enumerate(lanes):
            snr[c, :grid.size] = grid
            if grid.size > 1:
                model = LogNormalShadowing(sigma_db=sigma,
                                           decorrelation_m=decorrelation)
                r, inn = model.coefficients(10.0 * np.arange(grid.size))
                rho[c, :grid.size - 1] = r
                innovation[c, :grid.size - 1] = inn
        scales = np.array([sigma for _, sigma, _ in lanes])
        z = rng.standard_normal((30, p_max))
        return snr, rho, innovation, z, scales, sizes

    def test_mixed_first_scales_match_reference(self):
        snr, rho, innovation, z, scales, sizes = self._draws_problem()
        fused = numpy_fused.ar1_min_scan(snr, rho, innovation, z, scales,
                                         sizes)
        ref = reference.ar1_min_scan(snr, rho, innovation, z, scales, sizes)
        np.testing.assert_allclose(fused, ref, rtol=0.0, atol=1e-12)

    def test_uniform_scale_array_equals_the_float(self):
        snr, rho, innovation, z, sizes = self._ragged_problem()
        scales = np.full(sizes.size, 2.0)
        for kernels in (numpy_fused, reference):
            assert np.array_equal(
                kernels.ar1_min_scan(snr, rho, innovation, z, scales, sizes),
                kernels.ar1_min_scan(snr, rho, innovation, z, 2.0, sizes))

    def test_candidate_bits_do_not_depend_on_other_draws(self):
        # Adding candidates of other draws (other scales, other chunk
        # cuts) leaves every candidate's row bitwise unchanged: the
        # common-random-numbers contract across draws.
        snr, rho, innovation, z, scales, sizes = self._draws_problem()
        joint = numpy_fused.ar1_min_scan(snr, rho, innovation, z, scales,
                                         sizes)
        for c in range(sizes.size):
            pc = int(sizes[c])
            alone = numpy_fused.ar1_min_scan(
                snr[c:c + 1, :pc], rho[c:c + 1, :max(pc - 1, 1)],
                innovation[c:c + 1, :max(pc - 1, 1)], z[:, :pc],
                scales[c], sizes[c:c + 1])
            assert np.array_equal(alone[0], joint[c]), c
        rng = np.random.default_rng(1)
        for _ in range(5):
            subset = np.sort(rng.choice(sizes.size, size=7, replace=False))
            part = numpy_fused.ar1_min_scan(
                snr[subset], rho[subset], innovation[subset], z,
                scales[subset], sizes[subset])
            assert np.array_equal(part, joint[subset])

    def test_tiny_decorrelation_cuts_chunks(self):
        # The test above really mixes chunk schedules: the 25 m draw scans
        # in one chunk, the 0.05 m draw in many.
        _, rho, innovation, _, scales, _ = self._draws_problem()
        chunks = [len(numpy_fused._chunk_plan(rho[c], innovation[c],
                                              scales[c], 97))
                  for c in (0, 2)]   # decorrelation 25 m, 0.05 m
        assert chunks[0] == 1 and chunks[1] > 10

    def test_sigma_zero_short_circuits_before_kernel(self, monkeypatch):
        # The batched trace sampler returns zeros before any kernel call, so
        # even a kernel that cannot run resolves fine at sigma == 0.
        import oracles.mc

        def broken(*args):
            raise AssertionError("kernel called")

        monkeypatch.setattr(oracles.mc, "ar1_scan", broken)
        model = LogNormalShadowing(sigma_db=0.0)
        out = oracles.mc.sample_batch(model, np.array([0.0, 10.0, 20.0]),
                                      [np.random.default_rng(0)] * 4)
        assert np.array_equal(out, np.zeros((4, 3)))


class TestSocScan:
    """Fused SoC-space walk vs. the step-loop Wh walk.

    The fused kernel runs the recurrence in SoC units, so SoC-dependent
    floats agree with the step loop to a few ULPs (asserted at 1e-12
    relative — three decades inside the 1e-9 engine budget); integer
    counts and the hour-order PV sums are exact.
    """

    EXACT_KEYS = ("full_days", "unmet_hours", "monthly_unmet_hours",
                  "annual_pv_wh", "monthly_pv_wh")

    def _assert_matches(self, fused, ref):
        assert set(fused) == set(ref)
        for key in self.EXACT_KEYS:
            assert np.array_equal(fused[key], ref[key]), key
        for key in ("min_soc", "unmet_wh", "annual_load_wh"):
            np.testing.assert_allclose(fused[key], ref[key],
                                       rtol=1e-12, atol=1e-12, err_msg=key)

    def _problem(self, n, days=60, seed=5, split_month=False):
        rng = np.random.default_rng(seed)
        produced = rng.uniform(0.0, 400.0, (days, 24, n))
        produced[:, :6] = 0.0  # night hours: guaranteed pure-discharge
        produced[:, 12] = 500.0  # midday: guaranteed pure-charge
        demanded = rng.uniform(10.0, 120.0, (24, n))
        months = np.repeat(np.arange(days // 5) % 12, 5)[:days]
        if split_month:
            months = np.concatenate((months[days // 2:], months[:days // 2]))
        capacity = rng.uniform(500.0, 3000.0, n)
        efficiency = rng.uniform(0.8, 0.95, n)
        cutoff = rng.uniform(0.1, 0.3, n)
        return produced, demanded, months, capacity, efficiency, cutoff

    @pytest.mark.parametrize("n", [1, 7])
    def test_matches_reference(self, n):
        self._assert_matches(numpy_fused.soc_scan(*self._problem(n), 0.5),
                             reference.soc_scan(*self._problem(n), 0.5))

    @pytest.mark.parametrize("n", [1, 4])
    def test_split_months(self, n):
        # A month appearing in two non-contiguous day runs forces the
        # scatter-add fallback in the monthly sums.
        args = self._problem(n, split_month=True)
        self._assert_matches(numpy_fused.soc_scan(*args, 1.0),
                             reference.soc_scan(*args, 1.0))

    def test_initial_soc_below_cutoff(self):
        # The usable clamp must keep a below-cutoff battery from jumping
        # up to the cutoff on the first discharge hour.
        args = self._problem(3)
        self._assert_matches(numpy_fused.soc_scan(*args, 0.05),
                             reference.soc_scan(*args, 0.05))

    def test_hour_order_sum_matches_loop(self):
        rng = np.random.default_rng(6)
        for n in (1, 3):
            hourly = rng.uniform(-1.0, 1.0, (500, n))
            acc = np.zeros(n)
            for h in range(hourly.shape[0]):
                acc = acc + hourly[h]
            assert np.array_equal(_hour_order_sum(hourly), acc), n

    def test_monthly_sums_match_loop(self):
        rng = np.random.default_rng(7)
        days = 40
        for months in (np.repeat(np.arange(8) % 12, 5),
                       np.concatenate((np.full(20, 11), np.full(20, 11)))):
            for n in (1, 3):
                hourly = rng.uniform(0.0, 2.0, (days * 24, n))
                acc = np.zeros((12, n))
                for d in range(days):
                    for h in range(24):
                        acc[months[d]] = acc[months[d]] + hourly[d * 24 + h]
                assert np.array_equal(_monthly_sums(hourly, months), acc)


class TestStreamedSocScan:
    """The fused walk streams day blocks: outputs do not depend on the
    block length, bit for bit, and the walk holds no horizon-sized
    temporary."""

    def _problem(self, n, days, months):
        rng = np.random.default_rng(n * 1000 + days)
        produced = rng.uniform(0.0, 400.0, (days, 24, n))
        produced[:, :6] = 0.0
        demanded = rng.uniform(10.0, 120.0, (24, n))
        return (produced, demanded, months, rng.uniform(500.0, 3000.0, n),
                rng.uniform(0.8, 0.95, n), rng.uniform(0.1, 0.3, n))

    @pytest.mark.parametrize("n,days,start", [
        (1, 23, 1),      # one lane; 23 days is no multiple of 5
        (6, 60, 1),
        (3, 400, 274),   # Oct-1 start over more than a year: split months
    ])
    def test_block_length_invariance_bitwise(self, monkeypatch, n, days,
                                             start):
        from repro.solar.climates import months_of_days

        months = months_of_days((start - 1 + np.arange(days)) % 365 + 1)
        args = self._problem(n, days, months)
        outputs = []
        for block_days in (1, 5, days + 1):
            monkeypatch.setattr(numpy_fused, "_BLOCK_DAYS", block_days)
            outputs.append(numpy_fused.soc_scan(*args, 0.7))
        for out in outputs[1:]:
            assert set(out) == set(outputs[0])
            for key, value in out.items():
                assert value.dtype == outputs[0][key].dtype, key
                assert value.tobytes() == outputs[0][key].tobytes(), key

    def test_peak_memory_is_below_two_production_tensors(self):
        import tracemalloc

        from repro.solar.climates import months_of_days

        months = months_of_days((273 + np.arange(365)) % 365 + 1)
        args = self._problem(140, 365, months)
        produced = args[0]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            numpy_fused.soc_scan(*args, 1.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2 * produced.nbytes


class TestOccupancyScan:
    """The group scan on hand-worked lanes (transition 5 s, horizon 200 s)."""

    def test_hand_worked_lanes(self):
        inf = np.inf
        # Lane 0: two groups, each closing a wake cycle (awake 10 + 25 s).
        # Lane 1: a wake 5 s ahead of the group (awake 45..60 s).
        # Lane 2: no group, but a barrier wake at 150 s idles to the end.
        # Lane 3: the first group ends inside the transition, so the unit
        #         stays awake into the second (the missed-sleep case).
        g_a = np.array([[0.0, 100.0], [50.0, inf], [inf, inf], [0.0, 4.0]])
        g_b = np.array([[10.0, 120.0], [60.0, inf], [inf, inf], [3.0, 20.0]])
        first_wake = np.array([[0.0, 95.0, inf], [45.0, inf, inf],
                               [150.0, inf, inf], [0.0, inf, inf]])
        n_groups = np.array([2, 1, 0, 2])
        awake, waking = numpy_fused.occupancy_scan(
            g_a, g_b, first_wake, n_groups, 5.0, 200.0)
        assert awake.tolist() == [35.0, 15.0, 50.0, 20.0]
        assert waking.tolist() == [5.0, 0.0, 0.0, 4.0]


class TestFrontDoor:
    """``repro.kernels`` is the fused kernels, nothing else."""

    def test_kernel_names_are_the_fused_kernels(self):
        for name in KERNEL_NAMES:
            assert getattr(repro.kernels, name) is getattr(numpy_fused, name)
        assert set(repro.kernels.__all__) == {"KERNEL_NAMES", *KERNEL_NAMES}

    def test_oracles_share_the_fused_signatures(self):
        for name in ("ar1_scan", "ar1_min_scan", "soc_scan"):
            assert (inspect.signature(getattr(reference, name)).parameters.keys()
                    == inspect.signature(getattr(numpy_fused, name))
                    .parameters.keys()), name

    def test_substitution_is_scoped(self):
        import importlib

        modules = [(importlib.import_module(module), name)
                   for module, name in reference.ENGINE_BINDINGS]
        with reference.substituted():
            for module, name in modules:
                assert getattr(module, name) is getattr(reference, name)
        for module, name in modules:
            assert getattr(module, name) is getattr(numpy_fused, name)
