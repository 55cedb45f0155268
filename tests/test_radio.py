"""Tests for the radio layer: carrier, noise, SNR profiles (Eq. 2)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import constants
from repro.capacity.throughput import throughput_profile
from repro.corridor.layout import CorridorLayout
from repro.errors import ConfigurationError, GeometryError
from repro.propagation.fronthaul import FronthaulParams
from repro.radio.carrier import NrCarrier, rstp_dbm_from_eirp
from repro.radio.link import LinkParams, compute_snr_profile
from repro.radio.noise import RepeaterNoiseModel, thermal_noise_dbm


class TestCarrier:
    def test_hp_rstp(self):
        carrier = NrCarrier()
        # 64 dBm - 10 log10(3300) = 28.81 dBm
        assert carrier.rstp_dbm(64.0) == pytest.approx(28.81, abs=0.01)

    def test_lp_rstp(self):
        assert NrCarrier().rstp_dbm(40.0) == pytest.approx(4.81, abs=0.01)

    def test_subcarrier_spacing(self):
        assert NrCarrier().subcarrier_spacing_hz == pytest.approx(100e6 / 3300)

    def test_throughput_scaling(self):
        assert NrCarrier().throughput_bps(5.84) == pytest.approx(584e6)

    def test_rejects_zero_subcarriers(self):
        with pytest.raises(ConfigurationError):
            NrCarrier(n_subcarriers=0)

    def test_rejects_bandwidth_above_carrier(self):
        with pytest.raises(ConfigurationError):
            NrCarrier(frequency_hz=50e6, bandwidth_hz=100e6)

    def test_rstp_helper_matches(self):
        assert rstp_dbm_from_eirp(64.0, 3300) == pytest.approx(
            NrCarrier().rstp_dbm(64.0))

    @given(st.integers(min_value=1, max_value=100_000))
    def test_rstp_below_eirp(self, n_sc):
        assert rstp_dbm_from_eirp(64.0, n_sc) <= 64.0


class TestNoise:
    def test_terminal_noise(self):
        # -132 dBm + 5 dB NF = -127 dBm per subcarrier.
        assert thermal_noise_dbm() == pytest.approx(-127.0)

    def test_fronthaul_models_flagged(self):
        assert not RepeaterNoiseModel.PAPER.uses_fronthaul
        assert RepeaterNoiseModel.FRONTHAUL_STAR.uses_fronthaul
        assert RepeaterNoiseModel.FRONTHAUL_CHAIN.uses_fronthaul


class TestSnrProfile:
    def test_fig3_min_snr_above_peak_threshold(self, fig3_layout):
        profile = compute_snr_profile(fig3_layout)
        assert profile.min_snr_db > 29.30

    def test_symmetric_layout_symmetric_profile(self, fig3_layout):
        profile = compute_snr_profile(fig3_layout)
        snr = profile.snr_db
        assert np.allclose(snr, snr[::-1], atol=0.02)

    def test_hp_curve_drops_below_100dbm_in_first_half(self, fig3_layout):
        # The paper's Fig. 3 narrative.
        profile = compute_snr_profile(fig3_layout)
        hp_left = profile.source_rsrp_dbm[0]
        below = profile.positions_m[hp_left < -100.0]
        assert below.size > 0
        assert below[0] < fig3_layout.isd_m / 2

    def test_source_count(self, fig3_layout):
        profile = compute_snr_profile(fig3_layout)
        assert profile.source_rsrp_dbm.shape[0] == 2 + 8

    def test_total_signal_above_each_source(self, fig3_layout):
        profile = compute_snr_profile(fig3_layout)
        assert np.all(profile.total_signal_dbm >= profile.source_rsrp_dbm.max(axis=0) - 1e-9)

    def test_repeater_peaks_visible(self, fig3_layout):
        # Total signal should peak near each repeater position.
        profile = compute_snr_profile(fig3_layout)
        for pos in fig3_layout.repeater_positions_m:
            idx = np.argmin(np.abs(profile.positions_m - pos))
            window = profile.total_signal_dbm[max(0, idx - 100):idx + 100]
            assert profile.total_signal_dbm[idx] >= np.max(window) - 3.0

    def test_paper_noise_model_nearly_thermal(self, fig3_layout):
        profile = compute_snr_profile(fig3_layout)
        # Literal Eq. 2 repeater noise is negligible: total noise ~ -127 dBm.
        assert np.max(profile.total_noise_dbm) == pytest.approx(-127.0, abs=0.01)

    def test_fronthaul_noise_raises_floor(self, fig3_layout):
        params = LinkParams(repeater_noise_model=RepeaterNoiseModel.FRONTHAUL_STAR)
        profile = compute_snr_profile(fig3_layout, params)
        assert np.max(profile.total_noise_dbm) > -127.0 + 0.5

    def test_fronthaul_noise_lowers_min_snr(self, fig3_layout):
        base = compute_snr_profile(fig3_layout).min_snr_db
        fh = compute_snr_profile(
            fig3_layout,
            LinkParams(repeater_noise_model=RepeaterNoiseModel.FRONTHAUL_STAR)).min_snr_db
        assert fh < base

    def test_chain_quieter_than_star_for_wide_fields(self):
        # Relaying over short hops beats one long donor shot when fronthaul
        # SNR scales with d^-2: the chain's accumulated noise stays below the
        # star's far-node noise for wide repeater fields.
        layout = CorridorLayout.with_uniform_repeaters(2650.0, 10)
        star = compute_snr_profile(layout, LinkParams(
            repeater_noise_model=RepeaterNoiseModel.FRONTHAUL_STAR))
        chain = compute_snr_profile(layout, LinkParams(
            repeater_noise_model=RepeaterNoiseModel.FRONTHAUL_CHAIN))
        assert np.max(chain.total_noise_dbm) <= np.max(star.total_noise_dbm) + 1e-9
        assert chain.min_snr_db >= star.min_snr_db - 1e-9

    def test_conventional_layout_no_repeater_noise(self, conventional_layout):
        profile = compute_snr_profile(conventional_layout)
        assert np.allclose(profile.total_noise_dbm, -127.0, atol=1e-9)

    def test_snr_at_position(self, conventional_layout):
        profile = compute_snr_profile(conventional_layout)
        mid = profile.snr_at(250.0)
        assert mid == pytest.approx(np.min(profile.snr_db), abs=0.2)

    def test_conventional_midpoint_snr(self, conventional_layout):
        # Validated hand-calculation: ~34.5 dB at the 250 m midpoint, so the
        # 500 m baseline keeps several dB of margin and sustains peak rate.
        profile = compute_snr_profile(conventional_layout)
        assert profile.snr_at(250.0) == pytest.approx(34.5, abs=0.5)
        assert profile.min_snr_db > 32.0
        assert throughput_profile(profile).sustains_peak_everywhere
        longer = compute_snr_profile(CorridorLayout.conventional(900.0))
        assert longer.min_snr_db < profile.min_snr_db

    def test_rejects_zero_resolution(self, conventional_layout):
        with pytest.raises(ConfigurationError):
            compute_snr_profile(conventional_layout, resolution_m=0.0)

    def test_rejects_repeater_outside_segment(self):
        layout = CorridorLayout(isd_m=1000.0, repeater_positions_m=(500.0,))
        bad = CorridorLayout.__new__(CorridorLayout)
        object.__setattr__(bad, "isd_m", 1000.0)
        object.__setattr__(bad, "repeater_positions_m", (1500.0,))
        with pytest.raises(GeometryError):
            compute_snr_profile(bad)
        # sanity: the good layout works
        compute_snr_profile(layout, resolution_m=10.0)

    def test_coarse_resolution_close_to_fine(self, fig3_layout):
        fine = compute_snr_profile(fig3_layout, resolution_m=1.0).min_snr_db
        coarse = compute_snr_profile(fig3_layout, resolution_m=5.0).min_snr_db
        assert coarse == pytest.approx(fine, abs=0.1)

    @settings(deadline=None, max_examples=20)
    @given(st.floats(min_value=600.0, max_value=3000.0))
    def test_more_repeaters_never_hurt_snr(self, isd):
        with_two = CorridorLayout.with_uniform_repeaters(isd, 2)
        with_one = CorridorLayout(isd_m=isd,
                                  repeater_positions_m=(with_two.repeater_positions_m[0],))
        snr1 = compute_snr_profile(with_one, resolution_m=5.0)
        snr2 = compute_snr_profile(with_two, resolution_m=5.0)
        # Under the PAPER noise model, adding a transmitter only adds signal.
        assert np.all(snr2.snr_db >= snr1.snr_db - 1e-6)

    def test_higher_eirp_higher_snr(self, conventional_layout):
        base = compute_snr_profile(conventional_layout, LinkParams()).min_snr_db
        hot = compute_snr_profile(
            conventional_layout, LinkParams(hp_eirp_dbm=67.0)).min_snr_db
        assert hot == pytest.approx(base + 3.0, abs=0.01)

    def test_mean_snr_above_min(self, fig3_layout):
        profile = compute_snr_profile(fig3_layout)
        assert profile.mean_snr_db > profile.min_snr_db


class TestChainHopAssignment:
    """FRONTHAUL_CHAIN relay geometry, pinned for an asymmetric field."""

    def test_asymmetric_field_hops(self):
        from repro.radio.link import chain_hop_assignment

        layout = CorridorLayout(2400.0, (300.0, 500.0, 2000.0))
        hops, first_hop, spacing = chain_hop_assignment(layout)
        # Nodes at 300 m and 500 m chain from the left mast (ranks 0 and 1);
        # the node at 2000 m is adjacent to the right mast (rank 0).
        assert hops.tolist() == [0.0, 1.0, 0.0]
        # Hop length is the smallest node gap (500 -> 300).
        assert spacing == 200.0
        # First hop: donor-to-chain-start gap, minus the accumulated hops.
        assert first_hop.tolist() == [300.0, 300.0, 400.0]

    def test_symmetric_field_splits_between_masts(self):
        from repro.radio.link import chain_hop_assignment

        layout = CorridorLayout.with_uniform_repeaters(2400.0, 8)
        hops, first_hop, spacing = chain_hop_assignment(layout)
        assert spacing == 200.0
        # Four nodes chain from each mast with hop counts 0..3.
        assert hops.tolist() == [0.0, 1.0, 2.0, 3.0, 3.0, 2.0, 1.0, 0.0]
        # Every chain starts at the 500 m edge gap.
        assert first_hop.tolist() == pytest.approx([500.0] * 8)

    def test_single_node_uses_default_spacing(self):
        from repro.radio.link import chain_hop_assignment

        layout = CorridorLayout(1000.0, (400.0,))
        hops, first_hop, spacing = chain_hop_assignment(layout)
        assert hops.tolist() == [0.0]
        assert first_hop.tolist() == [400.0]
        assert spacing == constants.LP_NODE_SPACING_M

    def test_chain_noise_matches_assignment(self):
        """The chain noise term must be rebuildable from the hop assignment."""
        from repro.propagation.fronthaul import FronthaulBudget
        from repro.radio.link import chain_hop_assignment

        layout = CorridorLayout(2400.0, (300.0, 500.0, 2000.0))
        link = LinkParams(
            repeater_noise_model=RepeaterNoiseModel.FRONTHAUL_CHAIN)
        profile = compute_snr_profile(layout, link, resolution_m=5.0)

        hops, first_hop, spacing = chain_hop_assignment(layout)
        budget = FronthaulBudget(link.fronthaul)
        snr_fh = budget.chain_output_snr_linear(first_hop, hops, spacing)
        rstp_mw = 10.0 ** (link.lp_rstp_dbm / 10.0)
        positions = profile.positions_m
        att = np.stack([
            link.lp_friis().attenuation_linear(np.abs(positions - rp))
            for rp in layout.repeater_positions_m])
        expected_mw = (10.0 ** (link.terminal_noise_dbm / 10.0)
                       + np.sum((rstp_mw / snr_fh)[:, None] / att, axis=0))
        assert profile.total_noise_dbm == pytest.approx(
            10.0 * np.log10(expected_mw), abs=1e-9)


_NAN, _INF = float("nan"), float("inf")


def _border(**kwargs):
    from repro.radio.interference import cell_border_sinr

    return lambda: cell_border_sinr(**kwargs)


def _outage_span(**kwargs):
    from repro.radio.interference import peak_outage_span_m

    return lambda: peak_outage_span_m(**kwargs)


def _traversal(time_step_s):
    from repro.mobility.traversal import simulate_traversal

    return lambda: simulate_traversal(CorridorLayout.conventional(),
                                      time_step_s=time_step_s)


def _profile(resolution_m):
    return lambda: compute_snr_profile(CorridorLayout.conventional(),
                                       resolution_m=resolution_m)


@pytest.mark.parametrize("call", [
    pytest.param(_outage_span(edge_offset_m=_NAN), id="outage-edge-nan"),
    pytest.param(_outage_span(threshold_db=_NAN), id="outage-threshold-nan"),
    pytest.param(_border(edge_offset_m=_NAN), id="border-edge-nan"),
    pytest.param(_border(isd_m=_NAN), id="border-isd-nan"),
    pytest.param(_border(span_m=_NAN), id="border-span-nan"),
    pytest.param(_border(resolution_m=_NAN), id="border-resolution-nan"),
    pytest.param(_border(resolution_m=_INF), id="border-resolution-inf"),
    pytest.param(_traversal(_NAN), id="traversal-step-nan"),
    pytest.param(_traversal(_INF), id="traversal-step-inf"),
    pytest.param(_profile(_NAN), id="profile-resolution-nan"),
    pytest.param(_profile(_INF), id="profile-resolution-inf"),
])
def test_non_finite_input_is_a_configuration_error(call):
    with pytest.raises(ConfigurationError):
        call()
