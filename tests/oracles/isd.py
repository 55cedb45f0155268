"""Max-ISD oracle: the paper's full scan behind the bisections of
``repro.optimize.isd`` and ``repro.optimize.robustness``.

Section V registers, for each repeater count, the largest ISD on the 50 m
ladder that still meets the SNR constraint.  The production searches bisect
the ladder because feasibility is monotone in ISD.  These scans score every
candidate in one stacked evaluation and keep the largest feasible one, which
also handles a non-monotone profile exactly; the tests pin the bisections
equal to them.
"""

from __future__ import annotations

import numpy as np

from repro import constants
from repro.corridor.layout import CorridorLayout
from repro.errors import InfeasibleError
from repro.optimize.isd import IsdSweepResult, _resolve_threshold, isd_candidates
from repro.optimize.mc import outage_matrix
from repro.radio.batch import evaluate_scenarios, min_snr_batch
from repro.radio.link import LinkParams
from repro.scenario.spec import Scenario

__all__ = ["max_isd_scan", "robust_max_isd_scan", "sweep_max_isd_scan"]


def max_isd_scan(n_repeaters: int,
                 link: LinkParams | None = None,
                 capacity=None,
                 spacing_m: float = constants.LP_NODE_SPACING_M,
                 isd_step_m: float = constants.ISD_STEP_M,
                 isd_max_m: float = 4000.0,
                 resolution_m: float = 1.0,
                 shadowing_margin_db: float = 0.0,
                 threshold_db: float | None = None) -> tuple[float, float]:
    """``max_isd_for_n`` by scanning every candidate ISD."""
    link = link or LinkParams()
    threshold = _resolve_threshold(capacity, threshold_db)
    candidates = isd_candidates(n_repeaters, spacing_m, isd_step_m, isd_max_m)
    scenarios = [
        Scenario(layout=CorridorLayout.with_uniform_repeaters(
            float(isd), n_repeaters, spacing_m),
            link=link, resolution_m=resolution_m)
        for isd in candidates]
    snrs = (min_snr_batch(scenarios) - shadowing_margin_db if scenarios
            else np.empty(0))
    feasible = np.nonzero(snrs >= threshold)[0]
    if feasible.size == 0:
        raise InfeasibleError(
            f"no ISD up to {isd_max_m} m sustains peak throughput with "
            f"{n_repeaters} repeaters (threshold {threshold:.2f} dB)")
    best = int(feasible[-1])
    return float(candidates[best]), float(snrs[best])


def sweep_max_isd_scan(n_max: int = 10,
                       link: LinkParams | None = None,
                       include_zero: bool = True,
                       **kwargs) -> IsdSweepResult:
    """``sweep_max_isd`` with :func:`max_isd_scan` per repeater count.

    ``kwargs`` are :func:`max_isd_scan`'s geometry and constraint options.
    """
    link = link or LinkParams()
    counts = range(0 if include_zero else 1, n_max + 1)
    outcomes = {n: max_isd_scan(n, link, **kwargs) for n in counts}
    return IsdSweepResult(
        max_isd_by_n={n: isd for n, (isd, _) in outcomes.items()},
        min_snr_by_n={n: snr for n, (_, snr) in outcomes.items()},
        threshold_db=_resolve_threshold(kwargs.get("capacity"),
                                        kwargs.get("threshold_db")),
        link=link)


def robust_max_isd_scan(n_repeaters: int,
                        target_outage: float = 0.05,
                        shadowing=None,
                        link: LinkParams | None = None,
                        threshold_db: float = constants.PEAK_SNR_CRITERION_DB,
                        isd_step_m: float = constants.ISD_STEP_M,
                        isd_max_m: float = 3500.0,
                        trials: int = 100,
                        resolution_m: float = 5.0,
                        seed: int = 2022) -> tuple[float, float]:
    """``robust_max_isd`` by scoring every candidate in one stacked
    Monte-Carlo evaluation (common random numbers across candidates)."""
    candidates = isd_candidates(n_repeaters, constants.LP_NODE_SPACING_M,
                                isd_step_m, isd_max_m)
    profiles = evaluate_scenarios([
        Scenario(layout=CorridorLayout.with_uniform_repeaters(
            float(isd), n_repeaters),
            link=link or LinkParams(), resolution_m=resolution_m)
        for isd in candidates])
    outages = (outage_matrix(profiles, shadowing, threshold_db=threshold_db,
                             trials=trials, seed=seed).outage_probability
               if profiles else np.empty(0))
    feasible = np.nonzero(outages <= target_outage)[0]
    if feasible.size == 0:
        raise InfeasibleError(
            f"no ISD meets the {target_outage:.0%} outage target with "
            f"{n_repeaters} repeaters")
    best = int(feasible[-1])
    return float(candidates[best]), float(outages[best])
