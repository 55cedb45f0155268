"""Cell-border interference between adjacent BBU cells.

"a single cell from a BBU is already shared by multiple RRHs along a railway
track segment of several kilometers" (Section III).  Inside one stretched
cell all transmitters carry the same signal — no interference, which is the
corridor's architectural point.  But the line is partitioned into such cells
every few kilometres, and at the *border* between two cells the neighbour's
signal is co-channel interference.

This module computes the SINR dip at a cell border and how far from the
border the train drops below peak throughput — input for deciding cell sizes
and border placement (ideally at stations, where trains are slow and demand
handover anyway).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import constants
from repro.errors import ConfigurationError
from repro.radio.link import LinkParams

__all__ = ["CellBorderProfile", "cell_border_sinr", "peak_outage_span_m"]


@dataclass(frozen=True)
class CellBorderProfile:
    """SINR around the border between two identical stretched cells.

    Position 0 is the border; negative positions belong to the serving cell.
    The serving cell's last mast is at ``-edge_offset_m``; the neighbour
    cell's first mast mirrors it at ``+edge_offset_m``.
    """

    positions_m: np.ndarray
    sinr_db: np.ndarray
    snr_no_interference_db: np.ndarray

    @property
    def border_sinr_db(self) -> float:
        """SINR exactly at the border (0 dB for identical cells)."""
        idx = int(np.argmin(np.abs(self.positions_m)))
        return float(self.sinr_db[idx])

    @property
    def min_sinr_db(self) -> float:
        return float(np.min(self.sinr_db))


def cell_border_sinr(edge_offset_m: float = 250.0,
                     link: LinkParams | None = None,
                     span_m: float = 1000.0,
                     resolution_m: float = 1.0,
                     isd_m: float = constants.CONVENTIONAL_ISD_M,
                     masts_per_cell: int = 6) -> CellBorderProfile:
    """SINR profile across the border of two identical corridor cells.

    Each cell contributes ``masts_per_cell`` masts at ``isd_m`` spacing; the
    cells' edge masts sit ``edge_offset_m`` from the border, mirrored.  All
    own-cell masts carry the *same* signal (one stretched cell, so they add
    constructively in power), all neighbour masts are co-channel
    interference; thermal noise per the usual terminal budget.
    """
    link = link or LinkParams()
    for name, value in (("edge offset", edge_offset_m), ("span", span_m),
                        ("resolution", resolution_m), ("ISD", isd_m)):
        if not (math.isfinite(value) and value > 0):
            raise ConfigurationError(
                f"{name} must be finite and positive, got {value}")
    if masts_per_cell < 1:
        raise ConfigurationError(f"need >= 1 mast per cell, got {masts_per_cell}")

    positions = np.arange(-span_m, 0.0, resolution_m)
    hp = link.hp_friis()

    serving_mw = np.zeros_like(positions)
    interferer_mw = np.zeros_like(positions)
    for k in range(masts_per_cell):
        own_mast = -edge_offset_m - k * isd_m
        neighbour_mast = edge_offset_m + k * isd_m
        own_dbm = hp.received_power_dbm(link.hp_rstp_dbm,
                                        np.abs(positions - own_mast))
        other_dbm = hp.received_power_dbm(link.hp_rstp_dbm,
                                          np.abs(positions - neighbour_mast))
        serving_mw += 10.0 ** (own_dbm / 10.0)
        interferer_mw += 10.0 ** (other_dbm / 10.0)

    noise_mw = 10.0 ** (link.terminal_noise_dbm / 10.0)
    sinr = 10.0 * np.log10(serving_mw / (noise_mw + interferer_mw))
    snr = 10.0 * np.log10(serving_mw / noise_mw)
    return CellBorderProfile(positions_m=positions, sinr_db=sinr,
                             snr_no_interference_db=snr)


def peak_outage_span_m(threshold_db: float = constants.PEAK_SNR_CRITERION_DB,
                       edge_offset_m: float = 250.0,
                       link: LinkParams | None = None,
                       span_m: float = 2000.0,
                       resolution_m: float = 1.0) -> float:
    """Length of track (per side) where the border dips below peak throughput.

    This is the stretch a train crosses below peak rate at each cell border —
    the cost of partitioning the corridor into BBU cells, amortized over the
    cell length when planning cell sizes.
    """
    if not math.isfinite(threshold_db):
        raise ConfigurationError(f"threshold must be finite, got {threshold_db}")
    profile = cell_border_sinr(edge_offset_m, link, span_m, resolution_m)
    below = profile.sinr_db < threshold_db
    return float(np.count_nonzero(below) * resolution_m)
