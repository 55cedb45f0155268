"""Noise models for the Eq. (2) SNR denominator.

The total noise at track position ``d`` is

    N(d) = N_RSRP * NF_MT + sum_n N_LP,n(d)

where ``N_RSRP`` is the thermal floor per subcarrier and ``N_LP,n`` the noise
received from the n-th repeater.  Two repeater-noise models are provided:

``PAPER``
    The literal formula printed in the paper,
    ``N_LP,n(d) = N_RSRP * NF_LP / L_LP,n(d)``: the repeater's input-referred
    noise attenuated by the service path loss.  Numerically this is far below
    the terminal noise floor (~-230 dBm), so repeater noise is effectively
    absent.  This is the library default because it is what the paper states.

``FRONTHAUL_STAR`` / ``FRONTHAUL_CHAIN``
    Physically motivated amplify-and-forward model: the repeater re-amplifies
    its (fronthaul-limited) input noise along with the signal, so the noise it
    radiates is ``P_LP,RSTP / SNR_fronthaul`` per subcarrier, attenuated by the
    same service path loss as the signal.  The fronthaul SNR comes from
    :class:`repro.propagation.fronthaul.FronthaulBudget`.  This reproduces the
    diminishing ISD returns of the paper's registered list (Modelling
    decisions §4.1 in docs/reproducing.md).
"""

from __future__ import annotations

import enum

from repro import constants

__all__ = ["RepeaterNoiseModel", "thermal_noise_dbm"]


class RepeaterNoiseModel(enum.Enum):
    """Which repeater-noise formulation the link layer applies."""

    PAPER = "paper"
    FRONTHAUL_STAR = "fronthaul_star"
    FRONTHAUL_CHAIN = "fronthaul_chain"

    @property
    def uses_fronthaul(self) -> bool:
        """True when the model needs a donor fronthaul budget."""
        return self in (RepeaterNoiseModel.FRONTHAUL_STAR, RepeaterNoiseModel.FRONTHAUL_CHAIN)


def thermal_noise_dbm(noise_floor_rsrp_dbm: float = constants.NOISE_FLOOR_RSRP_DBM,
                      noise_figure_db: float = constants.TERMINAL_NOISE_FIGURE_DB) -> float:
    """Terminal noise power per subcarrier: thermal floor x noise figure."""
    return noise_floor_rsrp_dbm + noise_figure_db
