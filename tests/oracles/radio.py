"""Scalar Eq. (2) oracle: one layout, one source at a time.

:func:`repro.radio.link.compute_snr_profile` and every engine evaluate
Eq. (2) through the batched kernel of :mod:`repro.radio.batch`, which stacks
scenarios into ``[scenario, source, position]`` tensors.  This is the
original per-layout evaluation the kernel replaced: each source's Friis
attenuation through :class:`repro.propagation.friis.CalibratedFriis`, the
repeater noise through the shared ``_repeater_noise_mw``.  The kernel
performs the same elementwise operations in the same order, so its profiles
are bit-identical to this one (``tests/test_engine_parity.py``), and this is
the reference leg ``benchmarks/bench_batch_sweep.py`` races.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, GeometryError
from repro.radio.link import LinkParams, SnrProfile, _repeater_noise_mw

__all__ = ["compute_snr_profile", "scenario_profile"]


def compute_snr_profile(layout, params: LinkParams | None = None,
                        resolution_m: float = 1.0) -> SnrProfile:
    """Evaluate Eq. (2) over the full track segment of ``layout``, source
    by source (:func:`repro.radio.link.compute_snr_profile`'s arguments)."""
    params = params or LinkParams()
    if resolution_m <= 0:
        raise ConfigurationError(f"resolution must be positive, got {resolution_m}")
    isd = float(layout.isd_m)
    if isd <= 0:
        raise GeometryError(f"ISD must be positive, got {isd}")
    repeaters = np.asarray(layout.repeater_positions_m, dtype=float)
    if repeaters.size and (np.any(repeaters <= 0.0) or np.any(repeaters >= isd)):
        raise GeometryError("repeater positions must lie strictly inside (0, ISD)")

    positions = np.arange(resolution_m, isd, resolution_m)
    if positions.size == 0:
        raise GeometryError(f"no evaluation points for ISD {isd} at resolution {resolution_m}")

    hp = params.hp_friis()
    lp = params.lp_friis()

    source_positions = [0.0, isd] + list(repeaters)
    n_sources = len(source_positions)
    rsrp_dbm = np.empty((n_sources, positions.size))
    rsrp_dbm[0] = hp.received_power_dbm(params.hp_rstp_dbm, np.abs(positions - 0.0))
    rsrp_dbm[1] = hp.received_power_dbm(params.hp_rstp_dbm, np.abs(positions - isd))

    lp_attenuation = np.empty((repeaters.size, positions.size))
    for i, rp in enumerate(repeaters):
        att_db = lp.attenuation_db(np.abs(positions - rp))
        lp_attenuation[i] = 10.0 ** (att_db / 10.0)
        rsrp_dbm[2 + i] = params.lp_rstp_dbm - att_db

    signal_mw = np.sum(10.0 ** (rsrp_dbm / 10.0), axis=0)
    noise_mw = 10.0 ** (params.terminal_noise_dbm / 10.0) + _repeater_noise_mw(
        layout, params, lp_attenuation)

    snr_db = 10.0 * np.log10(signal_mw / noise_mw)
    return SnrProfile(
        positions_m=positions,
        source_rsrp_dbm=rsrp_dbm,
        total_signal_dbm=10.0 * np.log10(signal_mw),
        total_noise_dbm=10.0 * np.log10(noise_mw),
        snr_db=snr_db,
    )


def scenario_profile(scenario) -> SnrProfile:
    """The scalar profile of a :class:`repro.scenario.spec.Scenario`."""
    return compute_snr_profile(scenario.layout, scenario.link,
                               resolution_m=scenario.resolution_m)
