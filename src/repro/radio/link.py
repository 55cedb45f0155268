"""SNR profile along the railway track — Eq. (2) of the paper.

Given a corridor layout (two high-power sites ``d_ISD`` apart plus N low-power
repeater nodes in between) this module computes, for every track position:

* the RSRP of each individual source (Fig. 3's blue/orange/yellow curves),
* the total signal power (Eq. 2 numerator),
* the total noise power (Eq. 2 denominator) under the selected repeater-noise
  model, and
* the SNR.

This module holds the link parameters, the profile record and the noise
terms; the evaluation itself is the batched kernel of
:mod:`repro.radio.batch`, which :func:`compute_snr_profile` runs on one
layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro import constants
from repro.errors import GeometryError
from repro.propagation.friis import CalibratedFriis
from repro.propagation.fronthaul import FronthaulBudget, FronthaulParams
from repro.radio.carrier import NrCarrier
from repro.radio.noise import RepeaterNoiseModel, thermal_noise_dbm

__all__ = ["LinkParams", "SnrProfile", "chain_hop_assignment", "compute_snr_profile"]


@dataclass(frozen=True)
class LinkParams:
    """Everything Eq. (1) and Eq. (2) need.

    Defaults are the paper's published constants (:mod:`repro.constants`);
    Modelling decisions in docs/reproducing.md covers where they depart
    from a literal reading.
    """

    carrier: NrCarrier = field(default_factory=NrCarrier)
    hp_eirp_dbm: float = constants.HP_EIRP_DBM
    lp_eirp_dbm: float = constants.LP_EIRP_DBM
    hp_calibration_db: float = constants.HP_CALIBRATION_DB
    lp_calibration_db: float = constants.LP_CALIBRATION_DB
    noise_floor_rsrp_dbm: float = constants.NOISE_FLOOR_RSRP_DBM
    terminal_noise_figure_db: float = constants.TERMINAL_NOISE_FIGURE_DB
    repeater_noise_figure_db: float = constants.REPEATER_NOISE_FIGURE_DB
    repeater_noise_model: RepeaterNoiseModel = RepeaterNoiseModel.PAPER
    fronthaul: FronthaulParams = field(default_factory=FronthaulParams)

    @property
    def hp_rstp_dbm(self) -> float:
        """Per-subcarrier RSTP of a high-power RRH antenna."""
        return self.carrier.rstp_dbm(self.hp_eirp_dbm)

    @property
    def lp_rstp_dbm(self) -> float:
        """Per-subcarrier RSTP of a low-power repeater node."""
        return self.carrier.rstp_dbm(self.lp_eirp_dbm)

    @property
    def terminal_noise_dbm(self) -> float:
        """Terminal noise per subcarrier (thermal floor x terminal NF)."""
        return thermal_noise_dbm(self.noise_floor_rsrp_dbm, self.terminal_noise_figure_db)

    def hp_friis(self) -> CalibratedFriis:
        """Calibrated attenuation law of a high-power site."""
        return CalibratedFriis(self.carrier.frequency_hz, self.hp_calibration_db)

    def lp_friis(self) -> CalibratedFriis:
        """Calibrated attenuation law of a low-power repeater."""
        return CalibratedFriis(self.carrier.frequency_hz, self.lp_calibration_db)


@dataclass(frozen=True)
class SnrProfile:
    """Result of an Eq. (2) evaluation over a position grid.

    All per-source arrays are indexed ``[source, position]``; sources are
    ordered: HP left, HP right, then repeaters in layout order.
    """

    positions_m: np.ndarray
    source_rsrp_dbm: np.ndarray
    total_signal_dbm: np.ndarray
    total_noise_dbm: np.ndarray
    snr_db: np.ndarray

    @property
    def min_snr_db(self) -> float:
        """Worst-case SNR along the track (the optimizer's constraint)."""
        return float(np.min(self.snr_db))

    @property
    def mean_snr_db(self) -> float:
        """Position-averaged SNR in dB (average of dB values)."""
        return float(np.mean(self.snr_db))

    def snr_at(self, position_m: float) -> float:
        """SNR at the grid point nearest to ``position_m``."""
        idx = int(np.argmin(np.abs(self.positions_m - position_m)))
        return float(self.snr_db[idx])


def chain_hop_assignment(layout) -> tuple[np.ndarray, np.ndarray, float]:
    """FRONTHAUL_CHAIN relay geometry of a layout.

    Nodes relay from the nearest HP mast inward; the node k hops away from its
    donor accumulates k extra hops of node spacing.  Returns
    ``(hop_counts, first_hop_m, hop_length_m)`` where ``hop_counts`` is the
    number of extra relay hops per node (0 for the node adjacent to its
    donor), ``first_hop_m`` the donor-to-first-node gap of each node's chain
    (clamped to >= 1 m) and ``hop_length_m`` the uniform hop length.
    """
    positions = np.asarray(layout.repeater_positions_m, dtype=float)
    n_rep = positions.size
    dist_left = positions - 0.0
    dist_right = layout.isd_m - positions
    served_left = dist_left <= dist_right
    idx_sorted_left = np.argsort(dist_left)
    idx_sorted_right = np.argsort(dist_right)
    hop_rank_left = np.empty(n_rep, dtype=int)
    hop_rank_right = np.empty(n_rep, dtype=int)
    hop_rank_left[idx_sorted_left] = np.arange(n_rep)
    hop_rank_right[idx_sorted_right] = np.arange(n_rep)
    hops = np.where(served_left, hop_rank_left, hop_rank_right).astype(float)
    spacing = _chain_spacing(positions)
    first_hop = np.where(served_left, dist_left - hops * spacing,
                         dist_right - hops * spacing)
    first_hop = np.maximum(first_hop, 1.0)
    return hops, first_hop, spacing


def _repeater_noise_mw(layout, params: LinkParams, attenuation_linear: np.ndarray) -> np.ndarray:
    """Noise received from all repeaters, per model, in mW per subcarrier.

    ``attenuation_linear`` is the [repeater, position] service-path attenuation.
    """
    model = params.repeater_noise_model
    n_rep = attenuation_linear.shape[0]
    if n_rep == 0:
        return np.zeros(attenuation_linear.shape[1])

    if model is RepeaterNoiseModel.PAPER:
        # N_LP,n(d) = N_RSRP * NF_LP / L_LP,n(d)  (literal Eq. 2 term)
        out_port_mw = 10.0 ** ((params.noise_floor_rsrp_dbm + params.repeater_noise_figure_db) / 10.0)
        return np.sum(out_port_mw / attenuation_linear, axis=0)

    # Amplify-and-forward: radiated noise = RSTP / fronthaul SNR per node.
    budget = FronthaulBudget(params.fronthaul)
    positions = np.asarray(layout.repeater_positions_m, dtype=float)
    dist_left = positions - 0.0
    dist_right = layout.isd_m - positions
    nearest = np.minimum(dist_left, dist_right)
    if model is RepeaterNoiseModel.FRONTHAUL_STAR:
        snr_fh = budget.snr_linear_at(nearest)
    else:
        hops, first_hop, spacing = chain_hop_assignment(layout)
        snr_fh = budget.chain_output_snr_linear(first_hop, hops, spacing)
    rstp_mw = 10.0 ** (params.lp_rstp_dbm / 10.0)
    radiated_noise_mw = rstp_mw / snr_fh  # at each repeater's output port
    return np.sum(radiated_noise_mw[:, None] / attenuation_linear, axis=0)


def _chain_spacing(positions: np.ndarray) -> float:
    """Hop length of a daisy chain: the (uniform) node spacing."""
    if positions.size < 2:
        return float(constants.LP_NODE_SPACING_M)
    return float(np.min(np.diff(np.sort(positions))))


def compute_snr_profile(layout, params: LinkParams | None = None,
                        resolution_m: float = 1.0) -> SnrProfile:
    """Evaluate Eq. (2) over the full track segment of ``layout``.

    Runs :mod:`repro.radio.batch`'s kernel, the one Eq. (2) every engine
    runs, on this one layout.

    Parameters
    ----------
    layout:
        A :class:`repro.corridor.layout.CorridorLayout` (duck-typed: needs
        ``isd_m`` and ``repeater_positions_m``).
    params:
        Link parameters; paper defaults when omitted.
    resolution_m:
        Position grid step.  1 m reproduces the paper's smooth curves.
    """
    # radio.batch and scenario.spec import this module.
    from repro.radio.batch import _evaluate_group
    from repro.scenario.spec import Scenario

    scenario = Scenario(layout, params or LinkParams(), resolution_m)
    isd = float(layout.isd_m)
    if not (math.isfinite(isd) and isd > 0):
        raise GeometryError(f"ISD must be finite and positive, got {isd}")
    if any(not 0.0 < p < isd for p in layout.repeater_positions_m):
        raise GeometryError("repeater positions must lie strictly inside (0, ISD)")
    return _evaluate_group([scenario])[0]
