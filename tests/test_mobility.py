"""Tests for the train-traversal mobility layer."""

import numpy as np
import pytest

from repro.corridor.layout import CorridorLayout
from repro.errors import ConfigurationError
from repro.mobility.traversal import simulate_traversal
from repro.traffic.trains import Train


class TestTraversal:
    @pytest.fixture(scope="class")
    def fig3_traversal(self):
        layout = CorridorLayout.with_uniform_repeaters(2400.0, 8)
        return simulate_traversal(layout)

    def test_duration_matches_speed(self, fig3_traversal):
        # 2400 m at 200 km/h ~ 43.2 s.
        assert fig3_traversal.duration_s == pytest.approx(43.2, rel=0.02)

    def test_peak_everywhere_in_paper_scenario(self, fig3_traversal):
        assert fig3_traversal.time_at_peak_fraction() == 1.0
        assert fig3_traversal.min_throughput_bps == pytest.approx(584e6)

    def test_data_volume(self, fig3_traversal):
        # 584 Mbit/s for ~43 s ~ 25 Gbit for the whole train.
        volume_gbit = fig3_traversal.data_volume_bit / 1e9
        assert volume_gbit == pytest.approx(0.584 * 43.2, rel=0.03)

    def test_mean_between_min_and_max(self, fig3_traversal):
        assert (fig3_traversal.min_throughput_bps
                <= fig3_traversal.mean_throughput_bps
                <= np.max(fig3_traversal.throughput_bps))

    def test_no_gap_at_peak(self, fig3_traversal):
        assert fig3_traversal.worst_gap_s(100e6) == 0.0

    def test_oversized_segment_has_gaps(self):
        layout = CorridorLayout.with_uniform_repeaters(3600.0, 1)
        result = simulate_traversal(layout)
        assert result.time_at_peak_fraction(584e6) < 1.0
        assert result.worst_gap_s(584e6) > 0.0

    def test_slower_train_longer_traversal_same_volume_rate(self):
        layout = CorridorLayout.with_uniform_repeaters(2400.0, 8)
        fast = simulate_traversal(layout, Train(speed_kmh=200.0))
        slow = simulate_traversal(layout, Train(speed_kmh=100.0))
        assert slow.duration_s == pytest.approx(2 * fast.duration_s, rel=0.02)
        # Twice the time at the same rate: twice the data volume.
        assert slow.data_volume_bit == pytest.approx(2 * fast.data_volume_bit, rel=0.03)

    def test_rejects_zero_time_step(self):
        layout = CorridorLayout.conventional()
        with pytest.raises(ConfigurationError):
            simulate_traversal(layout, time_step_s=0.0)

    def test_conventional_and_extended_equal_per_km_capacity(self):
        # The paper's claim: same capacity with fewer masts.  Volume per km
        # should match between the 500 m baseline and the repeater segment.
        conventional = simulate_traversal(CorridorLayout.conventional())
        extended = simulate_traversal(CorridorLayout.with_uniform_repeaters(2400.0, 8))
        per_km_conv = conventional.data_volume_bit / 0.5
        per_km_ext = extended.data_volume_bit / 2.4
        assert per_km_ext == pytest.approx(per_km_conv, rel=0.02)
