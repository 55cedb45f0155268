"""mmWave donor fronthaul link budget (ref. [16] of the paper).

A donor repeater node at the high-power mast up-converts the cell signal to a
mmWave carrier; service nodes mix it back down and re-amplify it.  Because the
service node is an analog amplify-and-forward device, the *fronthaul* SNR at
the service node input bounds the SNR of its re-transmitted signal — this is
what makes far-away repeaters noisier and produces the diminishing ISD returns
observed in the paper's registered ISD list (see Modelling decisions §4.1 in
docs/reproducing.md).

Two topologies are modeled:

* ``STAR`` — every service node receives the fronthaul directly from its
  nearest donor node (each HP mast hosts one donor per direction).
* ``CHAIN`` — service nodes daisy-chain the fronthaul; per-hop noise
  accumulates along the chain.

The budget is parameterized by a single calibrated quantity: the fronthaul SNR
at a 1 km donor-service separation (`snr_at_1km_db`).  Under Friis propagation
the SNR then scales with -20 log10(r/1 km).  The default 33 dB was fit against
the paper's registered maximum-ISD list (total absolute error 550 m over the
ten entries).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["FronthaulTopology", "FronthaulParams", "FronthaulBudget"]

_REFERENCE_DISTANCE_M = 1000.0


class FronthaulTopology(enum.Enum):
    """How service nodes receive the mmWave fronthaul."""

    STAR = "star"
    CHAIN = "chain"


@dataclass(frozen=True)
class FronthaulParams:
    """Calibrated mmWave fronthaul description.

    Parameters
    ----------
    snr_at_1km_db:
        Fronthaul SNR at 1 km donor-service separation (per subcarrier).
    topology:
        Direct star feed or daisy-chained relaying.
    mmwave_frequency_hz:
        Carrier of the fronthaul, informational (the budget is distance
        calibrated, so the frequency only matters for derived quantities).
    """

    snr_at_1km_db: float = 33.0
    topology: FronthaulTopology = FronthaulTopology.STAR
    mmwave_frequency_hz: float = 60.0e9

    def __post_init__(self) -> None:
        if self.mmwave_frequency_hz <= 6.0e9:
            raise ConfigurationError(
                f"fronthaul must use a mmWave carrier (> 6 GHz), got {self.mmwave_frequency_hz}")


@dataclass(frozen=True)
class FronthaulBudget:
    """Evaluates fronthaul SNR for a set of donor/service geometries."""

    params: FronthaulParams = FronthaulParams()

    def snr_linear_at(self, distance_m) -> np.ndarray:
        """Fronthaul SNR (linear) for direct donor-service distance(s)."""
        d = np.maximum(np.asarray(distance_m, dtype=float), 1.0)
        s0 = 10.0 ** (self.params.snr_at_1km_db / 10.0)
        return s0 * (_REFERENCE_DISTANCE_M / d) ** 2

    def output_snr_linear(self, donor_distances_m, hop_counts=None) -> np.ndarray:
        """SNR limit of each service node's re-transmitted signal.

        Parameters
        ----------
        donor_distances_m:
            STAR: direct distance from each service node to its donor.
            CHAIN: length of the *first* hop (donor to first node) for each
            node's chain.
        hop_counts:
            CHAIN only: number of additional equal-length relay hops after the
            first (0 for the node adjacent to the donor).  Hop length is taken
            as the node spacing embedded in ``chain_hop_m`` of each call.
        """
        if self.params.topology is FronthaulTopology.STAR:
            return self.snr_linear_at(donor_distances_m)
        raise ConfigurationError("CHAIN topology requires chain_output_snr_linear()")

    def chain_output_snr_linear(self, first_hop_m, hop_counts, hop_length_m: float) -> np.ndarray:
        """Accumulated SNR along a daisy chain.

        Noise adds per amplify-and-forward hop: ``1/SNR_total = sum 1/SNR_hop``.
        The first hop covers the donor-to-first-node gap; subsequent hops are
        ``hop_length_m`` long.
        """
        first = np.asarray(first_hop_m, dtype=float)
        hops = np.asarray(hop_counts, dtype=float)
        if np.any(hops < 0):
            raise ConfigurationError("hop counts must be >= 0")
        inv = 1.0 / self.snr_linear_at(first) + hops / self.snr_linear_at(hop_length_m)
        return 1.0 / inv
