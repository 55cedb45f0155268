"""Batched Eq. (2) evaluation over scenario grids: the one Eq. (2) kernel.

Every SNR profile in :mod:`repro` comes from this module's kernel:
:func:`repro.radio.link.compute_snr_profile` runs it on one layout, and
:func:`evaluate_scenarios` runs it on whole batches of
:class:`repro.scenario.Scenario` objects:

* scenarios are deduplicated by content hash and served from an optional
  :class:`repro.scenario.ProfileCache`;
* attenuation is computed **once per unique geometry** — scenarios that differ
  only in link scalars (EIRP, noise figures) share the same attenuation
  arrays;
* unique geometries with the same source count are stacked into 3-D tensors
  indexed ``[scenario, source, position]`` (position-padded to the longest
  grid) so the transcendental work (log10 / 10**x) runs as a handful of large
  vectorized passes instead of one small pass per candidate;
* large batches can optionally be sharded across threads (``jobs``).

A profile does not depend on the batch it is evaluated in: the kernel
performs the same elementwise operations in the same order for every
scenario, and it is bit-identical to the source-by-source scalar oracle in
``tests/oracles/radio.py`` (``tests/test_engine_parity.py``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, GeometryError
from repro.propagation.friis import friis_constant_db
from repro.radio.link import SnrProfile, _repeater_noise_mw
from repro.scenario.cache import ProfileCache
from repro.scenario.spec import Scenario

__all__ = ["evaluate_scenarios", "min_snr_batch"]


def _geometry_key(sc: Scenario) -> tuple:
    """Identity of everything the attenuation arrays depend on."""
    return (sc.resolution_m, sc.layout.isd_m, tuple(sc.layout.repeater_positions_m),
            sc.link.carrier.frequency_hz, sc.link.hp_calibration_db,
            sc.link.lp_calibration_db)


def _evaluate_group(scenarios: list[Scenario]) -> list[SnrProfile]:
    """Batched kernel for scenarios sharing one source count.

    All heavy elementwise math runs on stacked ``[scenario, source, position]``
    tensors; attenuation is computed once per unique geometry and broadcast to
    the scenarios that share it.
    """
    # -- unique geometries and their position grids -------------------------
    geo_keys: dict[tuple, int] = {}
    geo_scenarios: list[Scenario] = []   # one representative per geometry
    geo_index = np.empty(len(scenarios), dtype=int)
    for s, sc in enumerate(scenarios):
        key = _geometry_key(sc)
        if key not in geo_keys:
            geo_keys[key] = len(geo_scenarios)
            geo_scenarios.append(sc)
        geo_index[s] = geo_keys[key]

    positions: list[np.ndarray] = []
    for sc in geo_scenarios:
        pos = sc.positions_m()
        if pos.size == 0:
            raise GeometryError(
                f"no evaluation points for ISD {sc.layout.isd_m} at "
                f"resolution {sc.resolution_m}")
        positions.append(pos)

    n_geo = len(geo_scenarios)
    n_src = 2 + len(geo_scenarios[0].layout.repeater_positions_m)
    p_max = max(pos.size for pos in positions)

    # -- stacked distances, padded with the 1 m clamp value -----------------
    dist = np.ones((n_geo, n_src, p_max))
    for g, (sc, pos) in enumerate(zip(geo_scenarios, positions)):
        isd = float(sc.layout.isd_m)
        valid = pos.size
        dist[g, 0, :valid] = np.abs(pos - 0.0)
        dist[g, 1, :valid] = np.abs(pos - isd)
        for i, rp in enumerate(sc.layout.repeater_positions_m):
            dist[g, 2 + i, :valid] = np.abs(pos - rp)

    # -- one attenuation computation per unique geometry --------------------
    # Same operation order as CalibratedFriis.attenuation_db:
    #   (friis_constant + 20 log10(max(d, 1))) + calibration.
    friis_const = np.array([friis_constant_db(sc.link.carrier.frequency_hz)
                            for sc in geo_scenarios])
    calib = np.empty((n_geo, n_src, 1))
    for g, sc in enumerate(geo_scenarios):
        calib[g, 0:2, 0] = sc.link.hp_calibration_db
        calib[g, 2:, 0] = sc.link.lp_calibration_db
    # The large passes run in place: on a fine grid every fresh
    # [geometry, source, position] temporary costs page faults.
    att_db = np.maximum(dist, 1.0, out=dist)
    np.log10(att_db, out=att_db)
    att_db *= 20.0
    np.add(friis_const[:, None, None], att_db, out=att_db)
    att_db += calib
    lp_att_linear = att_db[:, 2:, :] / 10.0
    np.power(10.0, lp_att_linear, out=lp_att_linear)

    # -- per-scenario RSRP, signal, noise, SNR (stacked) --------------------
    rstp = np.empty((len(scenarios), n_src, 1))
    for s, sc in enumerate(scenarios):
        rstp[s, 0:2, 0] = sc.link.hp_rstp_dbm
        rstp[s, 2:, 0] = sc.link.lp_rstp_dbm
    # Scenarios in first-occurrence order map 1:1 onto geometries when every
    # geometry is unique; skip the gather copy in that common (sweep) case.
    att_sel = att_db if n_geo == len(scenarios) else att_db[geo_index]
    rsrp_dbm = rstp - att_sel
    rsrp_mw = rsrp_dbm / 10.0
    np.power(10.0, rsrp_mw, out=rsrp_mw)
    signal_mw = np.sum(rsrp_mw, axis=1)

    noise_mw = np.empty_like(signal_mw)
    for s, sc in enumerate(scenarios):
        noise_mw[s] = 10.0 ** (sc.link.terminal_noise_dbm / 10.0) + _repeater_noise_mw(
            sc.layout, sc.link, lp_att_linear[geo_index[s]])

    snr_db = 10.0 * np.log10(signal_mw / noise_mw)
    total_signal_dbm = 10.0 * np.log10(signal_mw)
    total_noise_dbm = 10.0 * np.log10(noise_mw)

    profiles = []
    for s, sc in enumerate(scenarios):
        valid = positions[geo_index[s]].size
        profiles.append(SnrProfile(
            positions_m=positions[geo_index[s]],
            source_rsrp_dbm=np.ascontiguousarray(rsrp_dbm[s, :, :valid]),
            total_signal_dbm=np.ascontiguousarray(total_signal_dbm[s, :valid]),
            total_noise_dbm=np.ascontiguousarray(total_noise_dbm[s, :valid]),
            snr_db=np.ascontiguousarray(snr_db[s, :valid]),
        ))
    return profiles


#: Position-length spread tolerated inside one stacked tensor; chunking keeps
#: the padding overhead of mixed-ISD batches below ~30%.
_CHUNK_LENGTH_RATIO = 1.3
_CHUNK_MAX_GEOMETRIES = 128


def _chunk_by_length(scenarios: list[Scenario], indices: list[int]) -> list[list[int]]:
    """Split a same-source-count group into similar-grid-length chunks.

    Stacked tensors pad every scenario to the longest position grid in the
    chunk; sorting by grid length and bounding the min/max spread keeps that
    padding cheap.  Scenarios sharing a geometry stay adjacent so the
    one-attenuation-per-geometry reuse is preserved.
    """
    def grid_points(i: int) -> float:
        sc = scenarios[i]
        return float(sc.layout.isd_m) / sc.resolution_m

    ordered = sorted(indices, key=lambda i: (grid_points(i), _geometry_key(scenarios[i])))
    chunks: list[list[int]] = []
    for i in ordered:
        if (not chunks
                or grid_points(i) > _CHUNK_LENGTH_RATIO * grid_points(chunks[-1][0])
                or len(chunks[-1]) >= _CHUNK_MAX_GEOMETRIES):
            chunks.append([i])
        else:
            chunks[-1].append(i)
    return chunks


def _evaluate_unique(scenarios: list[Scenario]) -> list[SnrProfile]:
    """Group by source count, chunk by grid length, run the batched kernel."""
    groups: dict[int, list[int]] = {}
    for i, sc in enumerate(scenarios):
        groups.setdefault(sc.layout.n_repeaters, []).append(i)
    out: list[SnrProfile | None] = [None] * len(scenarios)
    for indices in groups.values():
        for chunk in _chunk_by_length(scenarios, indices):
            for i, profile in zip(chunk, _evaluate_group([scenarios[i] for i in chunk])):
                out[i] = profile
    return out


def evaluate_scenarios(scenarios,
                       cache: ProfileCache | None = None,
                       jobs: int | None = None) -> list[SnrProfile]:
    """Evaluate Eq. (2) for every scenario, batched.

    Parameters
    ----------
    scenarios:
        Iterable of :class:`repro.scenario.Scenario`.
    cache:
        Optional :class:`repro.scenario.ProfileCache`; hits skip evaluation
        entirely and fresh results are stored back.
    jobs:
        When > 1, shard the uncached scenarios across this many threads.
        Sharding never changes results (each shard runs the same kernel).

    Returns the profiles in input order.  Profiles are bit-identical to
    :func:`repro.radio.link.compute_snr_profile` on the same scenario (one
    kernel; a batch never changes a profile).
    """
    scenarios = list(scenarios)
    if jobs is not None and jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    results: list[SnrProfile | None] = [None] * len(scenarios)

    # -- cache hits and in-batch dedup --------------------------------------
    # Each scenario is hashed once; the cache is read and filled by key.
    pending: list[int] = []        # index of first occurrence per unique hash
    duplicates: dict[int, int] = {}  # index -> index of first occurrence
    seen: dict[str, int] = {}
    keys: list[str] = []
    for i, sc in enumerate(scenarios):
        key = sc.content_hash
        keys.append(key)
        if key in seen:
            duplicates[i] = seen[key]
            continue
        seen[key] = i
        if cache is not None:
            hit = cache.get_by_hash(key)
            if hit is not None:
                results[i] = hit
                continue
        pending.append(i)

    # -- evaluate the misses ------------------------------------------------
    if pending:
        to_eval = [scenarios[i] for i in pending]
        if jobs is not None and jobs > 1 and len(to_eval) > 1:
            # concurrent.futures costs inline runs ~10 ms of import.
            from concurrent.futures import ThreadPoolExecutor

            shards = np.array_split(np.arange(len(to_eval)), min(jobs, len(to_eval)))
            with ThreadPoolExecutor(max_workers=len(shards)) as pool:
                futures = [pool.submit(_evaluate_unique,
                                       [to_eval[j] for j in shard])
                           for shard in shards]
                profiles: list[SnrProfile | None] = [None] * len(to_eval)
                for shard, fut in zip(shards, futures):
                    for j, profile in zip(shard, fut.result()):
                        profiles[j] = profile
        else:
            profiles = _evaluate_unique(to_eval)
        for i, profile in zip(pending, profiles):
            results[i] = profile
            if cache is not None:
                cache.put_by_hash(keys[i], profile)

    for i, first in duplicates.items():
        results[i] = results[first]
    return results


def min_snr_batch(scenarios,
                  cache: ProfileCache | None = None,
                  jobs: int | None = None) -> np.ndarray:
    """Worst-case SNR of each scenario (the sweep constraint), batched.

    Args:
        scenarios: Iterable of :class:`~repro.scenario.spec.Scenario`.
        cache: Optional :class:`~repro.scenario.cache.ProfileCache`.
        jobs: Optional thread-shard count (see :func:`evaluate_scenarios`).

    Returns:
        ``min(snr_db)`` per scenario, in input order — the quantity the
        Section V feasibility criterion compares against 29 dB.  Values are
        bit-identical to ``compute_snr_profile(...).min_snr_db`` on the
        scenario's layout, link and resolution.
    """
    return np.array([p.min_snr_db
                     for p in evaluate_scenarios(scenarios, cache=cache, jobs=jobs)])
