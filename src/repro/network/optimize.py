"""Network-level technology assignment under global budgets.

Given the per-segment frontiers of :func:`repro.network.frontier.segment_frontiers`,
:func:`optimize_network` picks one :class:`~repro.network.frontier.TechnologyOption`
per segment to minimize total cost subject to a global energy budget (or,
with only a cost budget, minimize energy subject to cost).  The segment
choices are independent given a price on the constrained resource, so the
dual is one-dimensional and the solver is a Lagrangian bisection: double
the price from 1 until the selection fits the budget, then bisect for 64
iterations.

Each selection is a numpy argmin over the *unique* frontier rows only
(:attr:`~repro.network.frontier.SegmentFrontiers.row_groups`; ~100 rows for
a 10 000-segment national graph), broadcast back to the segments, while
budget totals are summed over every segment.  Each scored cell computes the
same float as a full-row pass, so the plans are bit-identical to it.  An
exact walk over the sorted λ breakpoints is deliberately not used: it
changes the per-row float arithmetic, and where two rows cross within a
few ulps of λ* it returns a different plan than the bisection.

Determinism: ties in the penalized score break toward the lower constrained
total and then the lowest option index, so the assignment is a pure
function of the frontier arrays — the property ``run_study`` relies on for
shard-layout-independent results.

Infeasibility: budgets below the minimum achievable raise
:class:`repro.errors.InfeasibleError` — but only *after* the full frontier
scan, so the error carries the true minima (``min_energy_w`` /
``min_cost_eur``) and the number of cells scanned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, InfeasibleError
from repro.network.frontier import (
    SegmentFrontiers,
    Technology,
    TechnologyCatalog,
    segment_frontiers,
)
from repro.network.graph import NetworkGraph
from repro.reporting.tables import format_table

__all__ = ["NetworkAssignment", "optimize_network"]

_BISECTION_ITERATIONS = 64
_LAMBDA_GROWTH_LIMIT = 200


@dataclass(frozen=True)
class NetworkAssignment:
    """The optimizer's output: one option per segment plus network totals.

    Attributes
    ----------
    frontiers:
        The frontier arrays the assignment was selected from.
    option_index:
        Chosen option column per segment (canonical graph order).
    lambda_star:
        The dual price on the constrained resource at the returned
        assignment (0 when the budget is slack).
    total_energy_w / total_cost_eur:
        Network totals of the assignment.
    energy_budget_w / cost_budget_eur:
        The budgets the assignment satisfies (``None`` = unconstrained).
    """

    frontiers: SegmentFrontiers
    option_index: np.ndarray
    lambda_star: float
    total_energy_w: float
    total_cost_eur: float
    energy_budget_w: float | None
    cost_budget_eur: float | None

    @property
    def graph(self) -> NetworkGraph:
        """The optimized network."""
        return self.frontiers.graph

    @property
    def options(self):
        """Option column order of :attr:`option_index`."""
        return self.frontiers.options

    @property
    def segment_energy_w(self) -> np.ndarray:
        """Per-segment average power of the chosen options [W]."""
        rows = np.arange(self.option_index.size)
        return self.frontiers.energy_w[rows, self.option_index]

    @property
    def segment_cost_eur(self) -> np.ndarray:
        """Per-segment horizon cost of the chosen options [EUR]."""
        rows = np.arange(self.option_index.size)
        return self.frontiers.cost_eur[rows, self.option_index]

    @property
    def sleeping(self) -> np.ndarray:
        """Per-segment sleep mask (the demand-aware eligibility rule)."""
        return self.frontiers.eligible.copy()

    @property
    def n_sleeping(self) -> int:
        """How many segments run a sleep (or solar) policy."""
        return int(np.count_nonzero(self.frontiers.eligible))

    def technology_counts(self) -> dict[str, int]:
        """Segments per technology family, plus the ``solar`` sub-count."""
        counts = {tech.value: 0 for tech in Technology}
        counts["solar"] = 0
        for k, option in enumerate(self.options):
            n = int(np.count_nonzero(self.option_index == k))
            counts[option.technology.value] += n
            if option.solar:
                counts["solar"] += n
        return counts

    def rows(self) -> list[tuple[str, str, float, float, bool]]:
        """Per-segment assignment rows: name, option, W, EUR, sleeping."""
        return self._rows(self.graph.segment_names)

    def _rows(self, names) -> list[tuple[str, str, float, float, bool]]:
        """Assignment rows of the first ``len(names)`` segments."""
        n = len(names)
        labels = [option.label for option in self.options]
        return list(zip(
            names, [labels[k] for k in self.option_index[:n].tolist()],
            self.segment_energy_w[:n].tolist(),
            self.segment_cost_eur[:n].tolist(),
            self.frontiers.eligible[:n].tolist()))

    def table(self, limit: int = 20) -> str:
        """Render the assignment summary plus the first ``limit`` segments.

        Only the shown rows are built.

        Raises:
            ConfigurationError: For a negative ``limit``.
        """
        if limit < 0:
            raise ConfigurationError(
                f"table limit must be >= 0, got {limit}")
        counts = self.technology_counts()
        summary = [
            ("segments", f"{self.option_index.size}"),
            ("total energy [kW]", f"{self.total_energy_w / 1e3:.3f}"),
            ("total cost [MEUR]", f"{self.total_cost_eur / 1e6:.3f}"),
            ("lambda*", f"{self.lambda_star:.6g}"),
            ("sleeping segments", f"{self.n_sleeping}"),
        ] + [(f"n {name}", f"{count}") for name, count in counts.items()]
        out = format_table(("quantity", "value"), summary,
                           title="network assignment")
        shown = self._rows([self.graph.segment_name(i) for i in
                            range(min(limit, self.option_index.size))])
        body = [(name, label, f"{w:.2f}", f"{eur:,.0f}",
                 "yes" if asleep else "no")
                for name, label, w, eur, asleep in shown]
        out += "\n" + format_table(
            ("segment", "option", "avg W", "cost EUR", "sleep"), body,
            title=f"first {len(shown)} of {self.option_index.size} segments")
        return out


def _select_rows(feasible: np.ndarray, objective: np.ndarray,
                 constrained: np.ndarray, lam: float) -> np.ndarray:
    """Per-row argmin of ``objective + lam * constrained``.

    Infeasible cells are masked with ``inf`` *before* the price is applied
    (``0 * inf`` would poison the score with NaN at ``lam == 0``).  Ties
    break toward the lower constrained total, then the lowest option index.
    """
    score = np.where(feasible, objective + lam * constrained, np.inf)
    best = score.min(axis=1, keepdims=True)
    tied = score == best
    # Among score-ties, prefer the smallest constrained value...
    tie_metric = np.where(tied, np.where(feasible, constrained, np.inf),
                          np.inf)
    best_metric = tie_metric.min(axis=1, keepdims=True)
    # ...and among those, the lowest option index (argmax of the mask).
    return np.argmax(tie_metric == best_metric, axis=1)


def _select(frontiers: SegmentFrontiers, objective: np.ndarray,
            constrained: np.ndarray, lam: float) -> np.ndarray:
    """Per-segment argmin of ``objective + lam * constrained``.

    Scores only one representative per distinct frontier row
    (:attr:`SegmentFrontiers.row_groups`) and broadcasts its choice to the
    row's segments; each scored cell computes the same float as in a
    full-row pass, so the choices are identical.
    """
    first, inverse = frontiers.row_groups
    return _select_rows(frontiers.feasible[first], objective[first],
                        constrained[first], lam)[inverse]


def _totals(frontiers: SegmentFrontiers, choice: np.ndarray,
            values: np.ndarray) -> float:
    """Network total of ``values`` under ``choice``, summed over every row."""
    rows = np.arange(choice.size)
    return float(values[rows, choice].sum())


def _solve_budget(frontiers: SegmentFrontiers, objective: np.ndarray,
                  constrained: np.ndarray, budget: float,
                  budget_name: str) -> tuple[np.ndarray, float]:
    """Min total objective s.t. total constrained <= budget (Lagrangian).

    Works on the distinct frontier rows throughout and expands the final
    per-row choice to segments once.  Each total still sums the per-segment
    values in segment order (the row values gathered through ``inverse``
    form the same array a full per-segment gather would), so it has the
    same bits as a full-row solve.
    """
    first, inverse = frontiers.row_groups
    feasible = frontiers.feasible[first]
    objective = objective[first]
    constrained = constrained[first]
    rows = np.arange(first.size)

    def select(lam: float) -> np.ndarray:
        return _select_rows(feasible, objective, constrained, lam)

    def fits(choice: np.ndarray) -> bool:
        return float(constrained[rows, choice][inverse].sum()) <= budget

    # Unpriced solution: if it already fits, the budget is slack.
    choice = select(0.0)
    if fits(choice):
        return choice[inverse], 0.0

    # Full-scan minima: definitive infeasibility check before any pricing.
    masked = np.where(feasible, constrained, np.inf)
    min_constrained = float(masked.min(axis=1)[inverse].sum())
    if min_constrained > budget:
        raise InfeasibleError(
            f"{budget_name} budget {budget:g} is below the minimum "
            f"achievable {min_constrained:g} "
            f"(after scanning {frontiers.scanned_options} "
            f"segment-option cells)",
            budget=budget, minimum=min_constrained,
            scanned_options=frontiers.scanned_options)

    # Bracket the price: grow hi until its selection fits the budget.
    hi = 1.0
    for _ in range(_LAMBDA_GROWTH_LIMIT):
        if fits(select(hi)):
            break
        hi *= 2.0
    else:  # pragma: no cover - min_constrained check makes this unreachable
        raise InfeasibleError(
            f"{budget_name} budget {budget:g} not reachable by pricing",
            budget=budget, minimum=min_constrained,
            scanned_options=frontiers.scanned_options)

    lo = 0.0
    for _ in range(_BISECTION_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if fits(select(mid)):
            hi = mid
        else:
            lo = mid
    return select(hi)[inverse], hi


def optimize_network(graph: NetworkGraph | None = None,
                     catalog: TechnologyCatalog | None = None,
                     *,
                     frontiers: SegmentFrontiers | None = None,
                     energy_budget_w: float | None = None,
                     cost_budget_eur: float | None = None,
                     **frontier_kwargs) -> NetworkAssignment:
    """Assign one technology option per segment under global budgets.

    With an energy budget the solver minimizes total cost subject to total
    average power <= ``energy_budget_w``; with only a cost budget the roles
    swap (minimize energy subject to cost); with neither it returns the
    plain cheapest feasible option per segment.  When both budgets are
    given, the energy-constrained solution is computed first and its cost
    checked against ``cost_budget_eur``.

    Args:
        graph: The network to optimize (ignored when ``frontiers`` given).
        catalog: Candidate options/policy (default catalog).
        frontiers: Precomputed :class:`SegmentFrontiers` — skip
            recomputation when sweeping budgets over one graph.
        energy_budget_w: Max total average power [W] (``None`` = no limit).
        cost_budget_eur: Max total horizon cost [EUR] (``None`` = no
            limit).
        **frontier_kwargs: Forwarded to
            :func:`repro.network.frontier.segment_frontiers` (``link``,
            ``resolution_m``, ``horizon_years``, ...).

    Returns:
        The :class:`NetworkAssignment`.

    Raises:
        InfeasibleError: When a budget is below the minimum achievable or
            some segment has no feasible option — in either case only
            after the full frontier scan, with the true minima attached.
        ConfigurationError: When neither a graph nor frontiers are given,
            or a budget is not finite.
    """
    for name, budget in (("energy", energy_budget_w),
                         ("cost", cost_budget_eur)):
        if budget is not None and not math.isfinite(budget):
            raise ConfigurationError(
                f"{name} budget must be finite, got {budget}")
    if frontiers is None:
        if graph is None:
            raise ConfigurationError(
                "optimize_network needs a graph or precomputed frontiers")
        frontiers = segment_frontiers(graph, catalog, **frontier_kwargs)
    elif frontier_kwargs:
        raise ConfigurationError(
            f"frontier kwargs {sorted(frontier_kwargs)} have no effect "
            f"when precomputed frontiers are supplied")

    stranded = ~frontiers.feasible.any(axis=1)
    if stranded.any():
        names = [frontiers.graph.segment_names[i]
                 for i in np.flatnonzero(stranded)[:5]]
        raise InfeasibleError(
            f"{int(stranded.sum())} segment(s) have no feasible technology "
            f"option (first: {names}; scanned "
            f"{frontiers.scanned_options} cells)",
            segments=int(stranded.sum()),
            scanned_options=frontiers.scanned_options)

    cost = frontiers.cost_eur
    energy = frontiers.energy_w
    if energy_budget_w is not None:
        choice, lam = _solve_budget(frontiers, cost, energy,
                                    float(energy_budget_w), "energy")
    elif cost_budget_eur is not None:
        choice, lam = _solve_budget(frontiers, energy, cost,
                                    float(cost_budget_eur), "cost")
    else:
        choice, lam = _select(frontiers, cost, energy, 0.0), 0.0

    total_cost = _totals(frontiers, choice, cost)
    total_energy = _totals(frontiers, choice, energy)
    if (energy_budget_w is not None and cost_budget_eur is not None
            and total_cost > float(cost_budget_eur)):
        masked = np.where(frontiers.feasible, cost, np.inf)
        raise InfeasibleError(
            f"cost budget {float(cost_budget_eur):g} EUR cannot be met "
            f"together with energy budget {float(energy_budget_w):g} W "
            f"(energy-feasible minimum cost {total_cost:g}; scanned "
            f"{frontiers.scanned_options} cells)",
            budget=float(cost_budget_eur), minimum=total_cost,
            unconstrained_minimum=float(masked.min(axis=1).sum()),
            scanned_options=frontiers.scanned_options)

    return NetworkAssignment(
        frontiers=frontiers, option_index=choice, lambda_star=lam,
        total_energy_w=total_energy, total_cost_eur=total_cost,
        energy_budget_w=(None if energy_budget_w is None
                         else float(energy_budget_w)),
        cost_budget_eur=(None if cost_budget_eur is None
                         else float(cost_budget_eur)))
