"""Frozen evaluation scenario: layout + link parameters + grid resolution.

A :class:`Scenario` pins down everything :func:`repro.radio.link.compute_snr_profile`
needs, so an Eq. (2) evaluation becomes a pure function of the scenario.  Each
scenario exposes a stable content hash over all of its fields, which the batch
engine (:mod:`repro.radio.batch`) and the profile cache
(:mod:`repro.scenario.cache`) use as identity: two scenarios with equal hashes
produce bit-identical profiles.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro import constants
from repro.corridor.layout import CorridorLayout
from repro.errors import ConfigurationError
from repro.radio.link import LinkParams, SnrProfile, compute_snr_profile
from repro.scenario.cache import content_token

__all__ = ["Scenario"]


@dataclass(frozen=True)
class Scenario:
    """One fully specified Eq. (2) evaluation.

    Attributes
    ----------
    layout:
        The corridor geometry (HP masts + repeater field).
    link:
        Link-budget parameters, including the noise model.
    resolution_m:
        Track position grid step of the evaluation.
    """

    layout: CorridorLayout
    link: LinkParams = field(default_factory=LinkParams)
    resolution_m: float = 1.0

    def __post_init__(self) -> None:
        if self.resolution_m <= 0:
            raise ConfigurationError(
                f"resolution must be positive, got {self.resolution_m}")

    # -- construction -------------------------------------------------------

    @classmethod
    def uniform(cls, isd_m: float, n_repeaters: int,
                spacing_m: float = constants.LP_NODE_SPACING_M,
                link: LinkParams | None = None,
                resolution_m: float = 1.0) -> "Scenario":
        """The paper's geometry wrapped in a scenario.

        Args:
            isd_m: Inter-site distance of the two HP masts [m].
            n_repeaters: Number of uniformly spaced LP repeater nodes.
            spacing_m: Repeater spacing [m] (default: the paper's 200 m).
            link: Link-budget parameters (paper defaults when ``None``).
            resolution_m: Track position grid step [m].

        Returns:
            The frozen scenario for this uniform-repeater corridor.
        """
        layout = CorridorLayout.with_uniform_repeaters(isd_m, n_repeaters, spacing_m)
        return cls(layout=layout, link=link or LinkParams(),
                   resolution_m=resolution_m)

    # -- identity -----------------------------------------------------------

    @property
    def content_hash(self) -> str:
        """SHA-256 over every field; stable across processes and sessions."""
        return hashlib.sha256(content_token(self).encode()).hexdigest()

    # -- evaluation ---------------------------------------------------------

    def positions_m(self) -> np.ndarray:
        """The track position grid this scenario is evaluated on."""
        return np.arange(self.resolution_m, float(self.layout.isd_m),
                         self.resolution_m)

    def evaluate(self) -> SnrProfile:
        """Single-scenario evaluation via the reference Eq. (2) path.

        Returns:
            The scalar-path :class:`~repro.radio.link.SnrProfile` —
            bit-identical to what the batch engine
            (:func:`repro.radio.batch.evaluate_scenarios`) produces for the
            same scenario.
        """
        return compute_snr_profile(self.layout, self.link,
                                   resolution_m=self.resolution_m)
