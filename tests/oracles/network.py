"""Network oracle: the per-segment frontier walk behind
``repro.network.frontier.segment_frontiers``.

The batched pass evaluates each unique layout once and each unique
(option, speed class, demand) combination once, then broadcasts.  This
walk recomputes every quantity segment by segment through the scalar entry
points (:func:`repro.radio.link.compute_snr_profile` per option and
segment, :func:`repro.energy.scenario.segment_energy` per cell), reading
each segment from the graph's columns.  It shares the production
elementwise cost/energy formulas, so the two are bit-identical by
construction (``tests/test_engine_parity.py``), and it is the honest
baseline ``benchmarks/bench_network.py`` races.
"""

from __future__ import annotations

import math

import numpy as np

from repro import constants
from repro.economics.costmodel import CostAssumptions
from repro.network.frontier import (
    _DAY_S,
    SegmentFrontiers,
    Technology,
    TechnologyCatalog,
    TechnologyOption,
    _profile_quantities,
    _segment_cost,
)
from repro.radio.link import LinkParams, compute_snr_profile

__all__ = ["min_snr_scalar", "segment_frontiers_scalar"]


def min_snr_scalar(option: TechnologyOption, link: LinkParams,
                   resolution_m: float) -> float:
    """Trackside min SNR via the scalar entry point (relay is exempt)."""
    if option.technology is Technology.MOBILE_RELAY:
        return float("inf")
    profile = compute_snr_profile(option.layout, link,
                                  resolution_m=resolution_m)
    return float(profile.min_snr_db)


def segment_frontiers_scalar(
        graph, catalog: TechnologyCatalog | None = None,
        assumptions: CostAssumptions | None = None,
        link: LinkParams | None = None, resolution_m: float = 25.0,
        horizon_years: float = 10.0,
        threshold_db: float = constants.PEAK_SNR_CRITERION_DB,
) -> SegmentFrontiers:
    """The frontier arrays of ``graph``, one segment and option at a time.

    Takes :func:`repro.network.frontier.segment_frontiers`' arguments
    (without its cache and thread sharding) and returns the same arrays.
    """
    catalog = catalog or TechnologyCatalog()
    assumptions = assumptions or CostAssumptions()
    link = link or LinkParams()
    options = catalog.options()
    n_seg, n_opt = graph.n_segments, len(options)
    energy_w = np.empty((n_seg, n_opt), dtype=np.float64)
    cost_eur = np.empty((n_seg, n_opt), dtype=np.float64)
    feasible = np.empty((n_seg, n_opt), dtype=bool)
    eligible = np.empty(n_seg, dtype=bool)

    for i in range(n_seg):
        length_km = float(graph.segment_length_km[i])
        length_m = length_km * 1000.0
        speed_class = graph.speed_classes[graph.speed_index[i]]
        demand = graph.demands[graph.demand_index[i]]
        seg_eligible = catalog.sleep_eligible(demand)
        eligible[i] = seg_eligible
        for k, option in enumerate(options):
            min_snr = min_snr_scalar(option, link, resolution_m)
            q = _profile_quantities(option, speed_class, demand,
                                    seg_eligible, min_snr, threshold_db)
            if not q.feasible:
                energy_w[i, k] = float("nan")
                cost_eur[i, k] = float("nan")
                feasible[i, k] = False
                continue
            energy = q.w_per_km * length_km
            relay_trains = 0.0
            if option.technology is Technology.MOBILE_RELAY:
                occupancy_s = (length_m + q.train_length_m) / q.speed_ms
                relay_trains = q.trains_per_day * occupancy_s / _DAY_S
                energy = energy + (relay_trains
                                   * catalog.relay_fleet
                                   .active_power_per_train_w)
            segs_per_row = float(math.ceil(length_m / option.layout.isd_m))
            n_service = segs_per_row * option.layout.n_repeaters
            n_donor = segs_per_row * option.layout.n_donor_nodes
            energy_w[i, k] = energy
            cost_eur[i, k] = _segment_cost(length_km, segs_per_row,
                                           n_service, n_donor, energy,
                                           relay_trains,
                                           catalog.relay_fleet
                                           .relays_per_train,
                                           option, assumptions,
                                           horizon_years)
            feasible[i, k] = True

    return SegmentFrontiers(graph=graph, catalog=catalog, options=options,
                            energy_w=energy_w, cost_eur=cost_eur,
                            feasible=feasible, eligible=eligible,
                            horizon_years=horizon_years,
                            threshold_db=threshold_db)
