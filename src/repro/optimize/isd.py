"""Maximum inter-site distance sweep — the paper's core optimization.

"Based on the path loss and capacity models in Section III-A, the throughput
can be calculated for every scenario (ISD in 50 m steps, number of low-power
repeater nodes {0, ..., 10}).  For each number of nodes, the maximum ISD is
registered with which the throughput still matches the peak throughput of 5G
NR at an SNR > 29 dB."

The sweep evaluates min-SNR over a fine position grid for each candidate ISD
and returns the largest feasible one.  Candidate evaluation routes through the
batched scenario engine (:mod:`repro.radio.batch`); because feasibility is
monotone in ISD the search bisects the candidate list (~log2 instead of
~linear evaluations).  The paper's full scan over every candidate is the test
oracle ``tests/oracles/isd.py``; the bisection is pinned equal to it in the
tests.  An optional shadowing margin tightens the SNR constraint for
robustness studies.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro import constants
from repro.capacity.shannon import TruncatedShannonModel
from repro.corridor.layout import CorridorLayout
from repro.errors import InfeasibleError
from repro.radio.batch import evaluate_scenarios, min_snr_batch
from repro.radio.link import LinkParams
from repro.scenario.cache import ProfileCache
from repro.scenario.spec import Scenario

__all__ = ["IsdSweepResult", "isd_candidates", "max_isd_for_n",
           "sweep_max_isd"]


def isd_candidates(n_repeaters: int,
                   spacing_m: float = constants.LP_NODE_SPACING_M,
                   isd_step_m: float = constants.ISD_STEP_M,
                   isd_max_m: float = 4000.0) -> np.ndarray:
    """Candidate ISDs of the paper's sweep for one repeater count.

    Walks up in ``isd_step_m`` steps from the smallest geometry that fits the
    repeater field (identical to the seed ``max_isd_for_n`` candidate set).

    Args:
        n_repeaters: Repeater count the candidates must accommodate.
        spacing_m: Repeater spacing [m].
        isd_step_m: Sweep step [m] (default: the paper's 50 m).
        isd_max_m: Upper bound of the candidate axis [m].

    Returns:
        Ascending candidate ISD array [m].
    """
    min_isd = spacing_m * max(0, n_repeaters - 1) + 2.0 * isd_step_m
    return np.arange(max(isd_step_m, min_isd), isd_max_m + isd_step_m / 2,
                     isd_step_m)


@dataclass(frozen=True)
class IsdSweepResult:
    """Outcome of a full N = 0..n_max sweep."""

    max_isd_by_n: dict[int, float]
    min_snr_by_n: dict[int, float]
    threshold_db: float
    link: LinkParams = field(default_factory=LinkParams, repr=False)

    def as_list(self) -> list[float]:
        """Maximum ISDs for N = 1.. in ascending N order (paper's list shape)."""
        return [self.max_isd_by_n[n] for n in sorted(self.max_isd_by_n) if n >= 1]


def _resolve_threshold(capacity: TruncatedShannonModel | None,
                       threshold_db: float | None) -> float:
    """SNR constraint of the sweep.

    Priority: explicit ``threshold_db`` > ``capacity.peak_snr_db`` (when a
    capacity model is supplied) > the paper's stated "SNR > 29 dB" criterion.
    """
    if threshold_db is not None:
        return threshold_db
    if capacity is not None:
        return capacity.peak_snr_db
    return constants.PEAK_SNR_CRITERION_DB


def max_isd_for_n(n_repeaters: int,
                  link: LinkParams | None = None,
                  capacity: TruncatedShannonModel | None = None,
                  spacing_m: float = constants.LP_NODE_SPACING_M,
                  isd_step_m: float = constants.ISD_STEP_M,
                  isd_max_m: float = 4000.0,
                  resolution_m: float = 1.0,
                  shadowing_margin_db: float = 0.0,
                  threshold_db: float | None = None,
                  cache: ProfileCache | None = None) -> tuple[float, float]:
    """Largest ISD sustaining peak throughput everywhere with N repeaters.

    Returns ``(max_isd_m, min_snr_db_at_max)``.  The candidate set walks up in
    ``isd_step_m`` steps from the smallest geometry that fits the repeater
    field.  The search bisects the candidates — feasibility is monotone in
    ISD for every supported noise model — evaluating only ~log2(candidates)
    profiles.

    The default SNR constraint is the paper's stated "SNR > 29 dB"; pass a
    ``capacity`` model to use its exact saturation point (29.30 dB with paper
    parameters) or ``threshold_db`` for an arbitrary constraint.

    Raises :class:`InfeasibleError` when no candidate ISD satisfies the
    constraint.
    """
    link = link or LinkParams()
    threshold = _resolve_threshold(capacity, threshold_db)

    candidates = isd_candidates(n_repeaters, spacing_m, isd_step_m, isd_max_m)
    scenarios = [
        Scenario(
            layout=CorridorLayout.with_uniform_repeaters(
                float(isd), n_repeaters, spacing_m),
            link=link, resolution_m=resolution_m)
        for isd in candidates
    ]
    infeasible = InfeasibleError(
        f"no ISD up to {isd_max_m} m sustains peak throughput with "
        f"{n_repeaters} repeaters (threshold {threshold:.2f} dB)")
    if not scenarios:
        raise infeasible

    snr_memo: dict[int, float] = {}

    def snr_at(index: int) -> float:
        if index not in snr_memo:
            profile = evaluate_scenarios([scenarios[index]], cache=cache)[0]
            snr_memo[index] = profile.min_snr_db - shadowing_margin_db
        return snr_memo[index]

    lo, hi = 0, len(scenarios) - 1
    # Evaluate the bracket in one batched call, then bisect the boundary.
    for index, snr in zip((lo, hi), min_snr_batch(
            [scenarios[lo], scenarios[hi]], cache=cache)):
        snr_memo[index] = float(snr) - shadowing_margin_db
    if snr_at(lo) < threshold:
        raise infeasible
    if snr_at(hi) >= threshold:
        best = hi
    else:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if snr_at(mid) >= threshold:
                lo = mid
            else:
                hi = mid
        best = lo
    return float(candidates[best]), float(snr_at(best))


def sweep_max_isd(n_max: int = 10,
                  link: LinkParams | None = None,
                  capacity: TruncatedShannonModel | None = None,
                  spacing_m: float = constants.LP_NODE_SPACING_M,
                  isd_step_m: float = constants.ISD_STEP_M,
                  isd_max_m: float = 4000.0,
                  resolution_m: float = 1.0,
                  include_zero: bool = True,
                  shadowing_margin_db: float = 0.0,
                  threshold_db: float | None = None,
                  cache: ProfileCache | None = None,
                  jobs: int | None = None) -> IsdSweepResult:
    """The full Section V sweep: max ISD for each repeater count.

    With default (paper-literal) link parameters and the paper's stated
    29 dB criterion the result matches the registered list exactly for
    N = 1..4 and exceeds it for large N (see Modelling decisions §4.1 in
    docs/reproducing.md); with
    ``RepeaterNoiseModel.FRONTHAUL_STAR`` the diminishing-returns tail is
    also reproduced.

    ``jobs`` > 1 evaluates the repeater counts concurrently; ``cache`` memoizes
    profiles across calls.
    """
    link = link or LinkParams()
    threshold = _resolve_threshold(capacity, threshold_db)
    start = 0 if include_zero else 1
    counts = list(range(start, n_max + 1))

    def one(n: int) -> tuple[float, float]:
        return max_isd_for_n(
            n, link, None, spacing_m, isd_step_m, isd_max_m,
            resolution_m, shadowing_margin_db, threshold_db=threshold,
            cache=cache)

    if jobs is not None and jobs > 1 and len(counts) > 1:
        with ThreadPoolExecutor(max_workers=min(jobs, len(counts))) as pool:
            outcomes = list(pool.map(one, counts))
    else:
        outcomes = [one(n) for n in counts]

    max_isd = {n: isd for n, (isd, _) in zip(counts, outcomes)}
    min_snr = {n: snr for n, (_, snr) in zip(counts, outcomes)}
    return IsdSweepResult(max_isd_by_n=max_isd, min_snr_by_n=min_snr,
                          threshold_db=threshold, link=link)
