"""Tests for the max-ISD sweep and the placement optimizer."""

import numpy as np
import pytest

from oracles.radio import compute_snr_profile

from repro import constants
from repro.capacity.shannon import TruncatedShannonModel
from repro.corridor.layout import CorridorLayout
from repro.errors import ConfigurationError, InfeasibleError
from repro.optimize.isd import isd_candidates, max_isd_for_n, sweep_max_isd
from repro.optimize.placement import optimize_placement
from repro.radio.link import LinkParams
from repro.radio.noise import RepeaterNoiseModel


class TestMaxIsd:
    def test_isd_candidates_match_seed_rule(self):
        cands = isd_candidates(10, isd_step_m=50.0, isd_max_m=4000.0)
        assert cands[0] == 1900.0  # 200 * 9 + 2 * 50
        assert cands[-1] == 4000.0
        assert np.all(np.diff(cands) == 50.0)

    def test_isd_candidates_without_repeaters_start_two_steps_up(self):
        cands = isd_candidates(0, isd_step_m=50.0, isd_max_m=300.0)
        assert cands.tolist() == [100.0, 150.0, 200.0, 250.0, 300.0]
        assert isd_candidates(1, isd_step_m=50.0,
                              isd_max_m=300.0).tolist() == cands.tolist()

    def test_isd_candidates_empty_when_field_exceeds_max(self):
        # 8 nodes need 1400 m + two steps: nothing fits under 1000 m.
        assert isd_candidates(8, isd_step_m=50.0, isd_max_m=1000.0).size == 0

    def test_n1_matches_paper_1250(self):
        isd, snr = max_isd_for_n(1)
        assert isd == 1250.0
        assert snr >= 29.0

    def test_n2_matches_paper_1450(self):
        isd, _ = max_isd_for_n(2)
        assert isd == 1450.0

    def test_exact_truncation_threshold_is_stricter(self):
        # Using the exact 29.30 dB saturation point instead of the paper's
        # stated 29 dB criterion shrinks the N=1 result by one 50 m step.
        isd, _ = max_isd_for_n(1, capacity=TruncatedShannonModel())
        assert isd == 1200.0

    def test_zero_repeaters_around_900(self):
        # The pure model allows ~900 m without repeaters (the paper adopts
        # 500 m as the deployed baseline).
        isd, _ = max_isd_for_n(0)
        assert 800.0 <= isd <= 1000.0

    def test_coarse_resolution_stable(self):
        fine, _ = max_isd_for_n(1, resolution_m=1.0)
        coarse, _ = max_isd_for_n(1, resolution_m=5.0)
        assert abs(fine - coarse) <= 50.0

    def test_min_snr_at_max_is_feasible_but_tight(self):
        isd, snr = max_isd_for_n(1)
        assert constants.PEAK_SNR_CRITERION_DB <= snr <= constants.PEAK_SNR_CRITERION_DB + 1.0

    def test_infeasible_when_field_does_not_fit(self):
        # 10 nodes span 1800 m; no candidate ISD below the cap fits them.
        with pytest.raises(InfeasibleError):
            max_isd_for_n(10, isd_max_m=1000.0)

    def test_infeasible_threshold(self):
        with pytest.raises(InfeasibleError):
            max_isd_for_n(1, threshold_db=80.0, resolution_m=5.0)

    def test_higher_threshold_shrinks_isd(self):
        strict = TruncatedShannonModel(max_bps_hz=6.5)
        isd_strict, _ = max_isd_for_n(1, capacity=strict, resolution_m=2.0)
        isd_default, _ = max_isd_for_n(1, resolution_m=2.0)
        assert isd_strict < isd_default

    def test_shadowing_margin_shrinks_isd(self):
        base, _ = max_isd_for_n(1, resolution_m=2.0)
        margin, _ = max_isd_for_n(1, resolution_m=2.0, shadowing_margin_db=3.0)
        assert margin < base


class TestSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return sweep_max_isd(n_max=10, resolution_m=2.0, include_zero=False)

    def test_ten_entries(self, sweep):
        assert len(sweep.as_list()) == 10

    def test_monotone_nondecreasing(self, sweep):
        lst = sweep.as_list()
        assert all(b >= a for a, b in zip(lst, lst[1:]))

    def test_head_matches_paper_exactly(self, sweep):
        # The literal Eq. (2) model with the paper's stated 29 dB criterion
        # reproduces the first four registered ISDs exactly.
        assert sweep.as_list()[:4] == [1250.0, 1450.0, 1600.0, 1800.0]

    def test_within_400m_of_paper(self, sweep):
        for model, paper in zip(sweep.as_list(), constants.PAPER_MAX_ISD_M):
            assert abs(model - paper) <= 400.0

    def test_all_on_isd_grid(self, sweep):
        assert all(isd % 50.0 == 0 for isd in sweep.as_list())

    def test_min_snr_above_threshold(self, sweep):
        for n, snr in sweep.min_snr_by_n.items():
            assert snr >= sweep.threshold_db, f"N={n}"

    def test_fronthaul_model_shows_diminishing_tail(self):
        literal = sweep_max_isd(n_max=10, resolution_m=4.0, include_zero=False)
        fronthaul = sweep_max_isd(
            n_max=10,
            link=LinkParams(repeater_noise_model=RepeaterNoiseModel.FRONTHAUL_STAR),
            resolution_m=4.0, include_zero=False)
        # At N=10 the fronthaul noise must bite: smaller max ISD.
        assert fronthaul.max_isd_by_n[10] < literal.max_isd_by_n[10]

    def test_fronthaul_closer_to_paper_tail(self):
        literal = sweep_max_isd(n_max=10, resolution_m=4.0, include_zero=False)
        fronthaul = sweep_max_isd(
            n_max=10,
            link=LinkParams(repeater_noise_model=RepeaterNoiseModel.FRONTHAUL_STAR),
            resolution_m=4.0, include_zero=False)
        paper_tail = constants.PAPER_MAX_ISD_M[7:]
        lit_err = sum(abs(a - b) for a, b in zip(literal.as_list()[7:], paper_tail))
        fh_err = sum(abs(a - b) for a, b in zip(fronthaul.as_list()[7:], paper_tail))
        assert fh_err < lit_err


class TestPlacement:
    def test_never_worse_than_centered(self):
        result = optimize_placement(2400.0, 4, resolution_m=4.0, max_rounds=5)
        assert result.min_snr_db >= result.baseline_min_snr_db - 0.05

    def test_positions_on_grid(self):
        result = optimize_placement(2400.0, 4, resolution_m=4.0, max_rounds=5)
        for pos in result.layout.repeater_positions_m:
            assert pos % 50.0 == pytest.approx(0.0, abs=1e-9)

    def test_positions_sorted_and_spaced(self):
        result = optimize_placement(2000.0, 5, resolution_m=4.0, max_rounds=5)
        positions = result.layout.repeater_positions_m
        assert list(positions) == sorted(positions)
        assert all(b - a >= 50.0 for a, b in zip(positions, positions[1:]))

    def test_rejects_zero_repeaters(self):
        with pytest.raises(ConfigurationError):
            optimize_placement(1000.0, 0)

    def test_reported_snr_matches_layout(self):
        result = optimize_placement(1800.0, 3, resolution_m=4.0, max_rounds=3)
        check = compute_snr_profile(result.layout, LinkParams(),
                                    resolution_m=4.0).min_snr_db
        assert check == pytest.approx(result.min_snr_db, abs=1e-9)
