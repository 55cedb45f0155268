"""Monte-Carlo robustness of an ISD choice under shadowing.

The paper's sweep is deterministic.  Real corridors see log-normal shadowing
(vegetation, cuttings, bridges); :func:`robust_max_isd` finds the largest
ISD whose *outage probability* — the chance that some track position of a
segment falls below the peak-throughput SNR — stays below a target, which
quantifies the ISD a robust design should back off.

All Monte-Carlo evaluation routes through the vectorized engine
(:mod:`repro.optimize.mc`): trials are seeded per-trial (common random
numbers), so every candidate ISD sees the same shadowing streams and the
empirical outage curve is directly comparable across candidates.
:func:`robust_max_isd` exploits that to bisect the outage-feasibility
boundary instead of scanning the whole ISD ladder.
"""

from __future__ import annotations

import numpy as np

from repro import constants
from repro.corridor.layout import CorridorLayout
from repro.errors import ConfigurationError, InfeasibleError
from repro.optimize.isd import isd_candidates
from repro.optimize.mc import outage_matrix
from repro.propagation.fading import LogNormalShadowing
from repro.radio.batch import evaluate_scenarios
from repro.radio.link import LinkParams
from repro.scenario.cache import ProfileCache
from repro.scenario.spec import Scenario

__all__ = ["robust_max_isd"]


def robust_max_isd(n_repeaters: int,
                   target_outage: float = 0.05,
                   shadowing: LogNormalShadowing | None = None,
                   link: LinkParams | None = None,
                   threshold_db: float = constants.PEAK_SNR_CRITERION_DB,
                   isd_step_m: float = constants.ISD_STEP_M,
                   isd_max_m: float = 3500.0,
                   trials: int = 100,
                   resolution_m: float = 5.0,
                   seed: int = 2022,
                   cache: ProfileCache | None = None,
                   jobs: int | None = None) -> tuple[float, float]:
    """Largest ISD whose shadowing outage stays below ``target_outage``.

    Returns ``(isd_m, outage_probability)``.  Always at least one 50 m step
    below the deterministic maximum, quantifying the robustness cost.  The
    deterministic profiles of all candidate ISDs are computed in one
    batched-engine call.

    Because every candidate is scored under **common random numbers** (same
    per-trial shadowing streams, see :mod:`repro.optimize.mc`), the empirical
    outage curve tracks the monotone-in-ISD behaviour of the deterministic
    profiles, and the search bisects the feasibility boundary —
    ~log2(candidates) Monte-Carlo evaluations instead of a linear scan.
    CRN cancels trial noise between candidates but the per-trial minima are
    taken over *different* position grids, so with finite trials a local
    wobble in the empirical curve is still possible — in that (rare) case the
    bisection settles on a smaller feasible ISD than the scan would (a wobble
    at the very bottom of the ladder instead falls back to the full scan, so
    infeasibility is only ever declared from a complete evaluation).  The
    tests pin the bisection equal to the full scan (the test oracle
    ``tests/oracles/isd.py``) across seed x sigma sweeps.

    Raises :class:`InfeasibleError` when no candidate meets the target.
    """
    if not 0.0 < target_outage < 1.0:
        raise ConfigurationError(f"target outage must be in (0,1), got {target_outage}")
    candidates = isd_candidates(n_repeaters, constants.LP_NODE_SPACING_M,
                                isd_step_m, isd_max_m)
    layouts = [CorridorLayout.with_uniform_repeaters(float(isd), n_repeaters)
               for isd in candidates]
    profiles = evaluate_scenarios(
        [Scenario(layout=lo, link=link or LinkParams(), resolution_m=resolution_m)
         for lo in layouts], cache=cache, jobs=jobs)

    def outage_of(indices) -> np.ndarray:
        matrix = outage_matrix([profiles[i] for i in indices], shadowing,
                               threshold_db=threshold_db, trials=trials,
                               seed=seed)
        return matrix.outage_probability

    def scan() -> tuple[float, float]:
        """Stacked evaluation of every candidate; largest feasible wins."""
        outages = outage_of(range(len(profiles)))
        feasible = np.nonzero(outages <= target_outage)[0]
        if feasible.size == 0:
            raise InfeasibleError(
                f"no ISD meets the {target_outage:.0%} outage target with "
                f"{n_repeaters} repeaters")
        best = int(feasible[-1])
        return float(candidates[best]), float(outages[best])

    memo: dict[int, float] = {}

    def outage_at(index: int) -> float:
        if index not in memo:
            memo[index] = float(outage_of([index])[0])
        return memo[index]

    lo, hi = 0, len(profiles) - 1
    # Evaluate the bracket in one stacked call, then bisect the boundary.
    for index, out in zip((lo, hi), outage_of([lo, hi])):
        memo[index] = float(out)
    if outage_at(lo) > target_outage:
        # The smallest candidate already misses the target: either genuine
        # infeasibility or finite-trial wobble right at the boundary.  The
        # full scan settles it either way, so the bisection never declares
        # infeasible where a scan of every candidate would not.
        return scan()
    if outage_at(hi) <= target_outage:
        best = hi
    else:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if outage_at(mid) <= target_outage:
                lo = mid
            else:
                hi = mid
        best = lo
    return float(candidates[best]), outage_at(best)
