"""Train traversal: throughput over time for a terminal riding through.

A terminal moving at train speed samples the positional SNR profile in time;
the integrated throughput is the data volume available to the train during
one segment traversal (shared by its passengers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.capacity.shannon import TruncatedShannonModel
from repro.capacity.throughput import throughput_profile
from repro.corridor.layout import CorridorLayout
from repro.errors import ConfigurationError
from repro.radio.link import LinkParams, compute_snr_profile
from repro.traffic.trains import Train

__all__ = ["TraversalResult", "simulate_traversal"]


@dataclass(frozen=True)
class TraversalResult:
    """Time series of one segment traversal at constant speed."""

    times_s: np.ndarray
    positions_m: np.ndarray
    snr_db: np.ndarray
    throughput_bps: np.ndarray
    train: Train

    @property
    def duration_s(self) -> float:
        return float(self.times_s[-1] - self.times_s[0])

    @property
    def data_volume_bit(self) -> float:
        """Total data deliverable during the traversal (trapezoidal)."""
        return float(np.trapezoid(self.throughput_bps, self.times_s))

    @property
    def mean_throughput_bps(self) -> float:
        return self.data_volume_bit / self.duration_s

    @property
    def min_throughput_bps(self) -> float:
        return float(np.min(self.throughput_bps))

    def time_at_peak_fraction(self, peak_bps: float | None = None) -> float:
        """Fraction of the traversal spent at peak rate."""
        peak = float(np.max(self.throughput_bps)) if peak_bps is None else peak_bps
        return float(np.mean(self.throughput_bps >= peak - 1e-6))

    def worst_gap_s(self, threshold_bps: float) -> float:
        """Longest continuous time below a throughput threshold."""
        below = self.throughput_bps < threshold_bps
        if not np.any(below):
            return 0.0
        dt = float(self.times_s[1] - self.times_s[0]) if self.times_s.size > 1 else 0.0
        longest = 0
        current = 0
        for flag in below:
            current = current + 1 if flag else 0
            longest = max(longest, current)
        return longest * dt


def simulate_traversal(layout: CorridorLayout,
                       train: Train | None = None,
                       link: LinkParams | None = None,
                       capacity: TruncatedShannonModel | None = None,
                       time_step_s: float = 0.1) -> TraversalResult:
    """Ride a terminal through the segment at train speed.

    The terminal samples the positional profile; Doppler and handover
    interruptions are outside the paper's model (a single stretched cell has
    no handovers inside the segment — that is the corridor's point).
    """
    train = train or Train()
    capacity = capacity or TruncatedShannonModel()
    if not (math.isfinite(time_step_s) and time_step_s > 0):
        raise ConfigurationError(
            f"time step must be finite and positive, got {time_step_s}")

    profile = compute_snr_profile(layout, link, resolution_m=max(0.5, train.speed_ms * time_step_s))
    thr = throughput_profile(profile, capacity)

    times = profile.positions_m / train.speed_ms
    return TraversalResult(
        times_s=times,
        positions_m=profile.positions_m,
        snr_db=profile.snr_db,
        throughput_bps=thr.throughput_bps,
        train=train,
    )

