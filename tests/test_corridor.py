"""Tests for corridor geometry, layouts and deployments."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import constants
from repro.corridor.deployment import CorridorDeployment, DeploymentKind
from repro.corridor.geometry import CatenaryGrid, TrackSegment
from repro.corridor.layout import CorridorLayout, donor_node_count
from repro.errors import GeometryError


class TestTrackSegment:
    def test_length(self):
        assert TrackSegment(100.0, 600.0).length_m == 500.0

    def test_rejects_inverted(self):
        with pytest.raises(GeometryError):
            TrackSegment(600.0, 100.0)

    def test_contains(self):
        seg = TrackSegment(0.0, 500.0)
        assert seg.contains(0.0) and seg.contains(500.0) and seg.contains(250.0)
        assert not seg.contains(-1.0) and not seg.contains(501.0)

    def test_overlap(self):
        a = TrackSegment(0.0, 500.0)
        assert a.overlap_m(TrackSegment(400.0, 900.0)) == 100.0
        assert a.overlap_m(TrackSegment(600.0, 900.0)) == 0.0


class TestCatenaryGrid:
    def test_snap(self):
        grid = CatenaryGrid()
        assert grid.snap(123.0) == 100.0
        assert grid.snap(130.0) == 150.0

    def test_snap_all(self):
        grid = CatenaryGrid()
        out = grid.snap_all([12.0, 88.0, 625.0])
        assert list(out) == [0.0, 100.0, 600.0]

    def test_is_on_grid(self):
        grid = CatenaryGrid()
        assert grid.is_on_grid(250.0)
        assert not grid.is_on_grid(275.0)

    def test_offset_grid(self):
        grid = CatenaryGrid(offset_m=25.0)
        assert grid.snap(50.0) == pytest.approx(25.0)  # nearest of 25/75 (round-half-even)

    def test_masts_in_segment(self):
        grid = CatenaryGrid()
        masts = grid.masts_in(TrackSegment(90.0, 260.0))
        assert list(masts) == [100.0, 150.0, 200.0, 250.0]

    def test_masts_in_empty(self):
        grid = CatenaryGrid()
        assert grid.masts_in(TrackSegment(101.0, 149.0)).size == 0

    def test_rejects_bad_spacing(self):
        with pytest.raises(GeometryError):
            CatenaryGrid(spacing_m=0.0)


class TestDonorCount:
    def test_paper_counting_rule(self):
        # Section V-A: 0 -> 0, 1 -> 1, >= 2 -> 2.
        assert donor_node_count(0) == 0
        assert donor_node_count(1) == 1
        assert donor_node_count(2) == 2
        assert donor_node_count(10) == 2

    def test_rejects_negative(self):
        with pytest.raises(GeometryError):
            donor_node_count(-1)


class TestCorridorLayout:
    def test_conventional_has_no_repeaters(self):
        layout = CorridorLayout.conventional()
        assert layout.n_repeaters == 0
        assert layout.isd_m == 500.0
        assert layout.n_donor_nodes == 0

    def test_uniform_centered(self):
        layout = CorridorLayout.with_uniform_repeaters(2400.0, 8)
        assert layout.n_repeaters == 8
        assert layout.repeater_positions_m[0] == pytest.approx(500.0)
        assert layout.repeater_positions_m[-1] == pytest.approx(1900.0)
        assert layout.edge_gap_m == pytest.approx(500.0)
        assert layout.min_repeater_spacing_m() == pytest.approx(200.0)

    def test_single_node_centered(self):
        layout = CorridorLayout.with_uniform_repeaters(1250.0, 1)
        assert layout.repeater_positions_m == (625.0,)
        assert layout.repeater_span_m == 0.0

    def test_equal_division(self):
        layout = CorridorLayout.with_equally_divided_repeaters(1200.0, 2)
        assert layout.repeater_positions_m == (400.0, 800.0)

    def test_span(self):
        layout = CorridorLayout.with_uniform_repeaters(2650.0, 10)
        assert layout.repeater_span_m == pytest.approx(1800.0)

    def test_sections(self):
        layout = CorridorLayout.with_uniform_repeaters(1250.0, 1)
        (start, end), = layout.repeater_sections()
        assert (start, end) == (525.0, 725.0)

    def test_scaled(self):
        layout = CorridorLayout.with_uniform_repeaters(1000.0, 2)
        scaled = layout.scaled_to(2000.0)
        assert scaled.isd_m == 2000.0
        assert scaled.repeater_positions_m == (800.0, 1200.0)

    def test_rejects_field_too_wide(self):
        with pytest.raises(GeometryError):
            CorridorLayout.with_uniform_repeaters(1700.0, 10)  # span 1800 > 1700

    def test_rejects_zero_isd(self):
        with pytest.raises(GeometryError):
            CorridorLayout(isd_m=0.0)

    def test_rejects_outside_positions(self):
        with pytest.raises(GeometryError):
            CorridorLayout(isd_m=1000.0, repeater_positions_m=(1000.0,))
        with pytest.raises(GeometryError):
            CorridorLayout(isd_m=1000.0, repeater_positions_m=(0.0,))

    def test_rejects_duplicates(self):
        with pytest.raises(GeometryError):
            CorridorLayout(isd_m=1000.0, repeater_positions_m=(300.0, 300.0))

    def test_rejects_unsorted(self):
        with pytest.raises(GeometryError):
            CorridorLayout(isd_m=1000.0, repeater_positions_m=(600.0, 300.0))

    def test_rejects_negative_count(self):
        with pytest.raises(GeometryError):
            CorridorLayout.with_uniform_repeaters(1000.0, -1)

    @given(st.integers(min_value=1, max_value=10),
           st.floats(min_value=600.0, max_value=4000.0))
    def test_uniform_layout_invariants(self, n, isd):
        span = (n - 1) * 200.0
        if isd <= span:
            with pytest.raises(GeometryError):
                CorridorLayout.with_uniform_repeaters(isd, n)
            return
        layout = CorridorLayout.with_uniform_repeaters(isd, n)
        # centered: equal gaps both sides
        left = layout.repeater_positions_m[0]
        right = isd - layout.repeater_positions_m[-1]
        assert left == pytest.approx(right)
        assert layout.n_donor_nodes == donor_node_count(n)

    @given(st.integers(min_value=0, max_value=12), st.floats(min_value=500.0, max_value=3000.0))
    def test_equal_division_gaps(self, n, isd):
        layout = CorridorLayout.with_equally_divided_repeaters(isd, n)
        positions = (0.0,) + layout.repeater_positions_m + (isd,)
        gaps = np.diff(positions)
        assert np.allclose(gaps, gaps[0])


class TestDeployment:
    def test_conventional_densities(self):
        dep = CorridorDeployment.conventional()
        assert dep.kind is DeploymentKind.CONVENTIONAL
        assert dep.masts_per_km == pytest.approx(2.0)
        assert dep.rrhs_per_km == pytest.approx(4.0)
        assert dep.lp_nodes_per_km == 0.0

    def test_repeater_deployment_densities(self):
        dep = CorridorDeployment.with_repeaters(2650.0, 10)
        assert dep.masts_per_km == pytest.approx(1000.0 / 2650.0)
        assert dep.service_nodes_per_km == pytest.approx(10 * 1000.0 / 2650.0)
        assert dep.donor_nodes_per_km == pytest.approx(2 * 1000.0 / 2650.0)

    def test_segments_for_length(self):
        dep = CorridorDeployment.with_repeaters(2000.0, 4)
        assert dep.segments_for_length(10.0) == 5
        assert dep.segments_for_length(10.1) == 6

    def test_segments_rejects_zero_length(self):
        with pytest.raises(GeometryError):
            CorridorDeployment.conventional().segments_for_length(0.0)
