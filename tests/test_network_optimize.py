"""Property suite for the network optimizer (repro.network).

Seeded, deterministic properties of the Lagrangian assignment:

* **budget monotonicity** — relaxing the energy budget never increases the
  optimal cost (the dual price is non-increasing in the budget);
* **demand monotonicity** — scaling demand up never grows the sleeping set
  (the headway rule is monotone in trains/h);
* **infeasibility discipline** — budgets below the minimum achievable raise
  :class:`~repro.errors.InfeasibleError` only after the full frontier scan,
  with the true minima attached;
* **unique-row solving** — the optimizer scores one representative per
  distinct frontier row, and its plans are bit-identical to a full-row
  reference solver kept in this file;
* **columnar graphs** — ``build_graph`` equals the per-segment column
  builder kept in this file as the oracle, and the graph constructor
  validates every column;
* **finite inputs** — NaN and infinite values are refused with
  :class:`~repro.errors.ConfigurationError` by the library, the CLI and the
  ``network`` study adapter (before any compute).
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ConfigurationError, GeometryError, InfeasibleError
from repro.network import (
    DemandProfile,
    NetworkGraph,
    SPEED_CLASSES,
    SegmentFrontiers,
    TechnologyCatalog,
    build_graph,
    optimize_network,
    segment_frontiers,
)
from repro.network.optimize import _select
from repro.network.presets import _DEMAND_TIERS
from repro.scenario.spec import Scenario

SEEDS = (0, 7, 1234)

RESOLUTION_M = 50.0


def _frontiers(scale: float = 1.0, segments: int = 0, graph: str = "demo",
               **kwargs):
    g = build_graph(graph, n_segments=segments, demand_scale=scale)
    return segment_frontiers(g, resolution_m=RESOLUTION_M, **kwargs)


# -- graph validation ---------------------------------------------------------


class TestGraphModel:
    def test_demand_profile_semantics(self):
        d = DemandProfile(trains_per_hour=8.0)
        assert d.headway_s == 450.0
        assert d.scaled(2.0).headway_s == 225.0
        assert DemandProfile(trains_per_hour=0.0).headway_s == math.inf
        with pytest.raises(ConfigurationError):
            d.scaled(-1.0)
        traffic = d.traffic(160.0)
        assert traffic.trains_per_hour == 8.0
        assert traffic.train.speed_kmh == 160.0

    def test_canonical_order_and_names(self):
        graph = build_graph("demo")
        assert graph.n_segments == 48
        assert len(graph.local_names) == 48
        assert graph.segment_names[0] == "c00/s0000"
        assert len(set(graph.segment_names)) == 48

    def test_build_graph_validation(self):
        with pytest.raises(ConfigurationError):
            build_graph("atlantis")
        with pytest.raises(ConfigurationError):
            build_graph("demo", n_segments=-3)
        assert build_graph("national", n_segments=10).n_segments == 10


# -- columnar graphs vs. the per-segment oracle --------------------------------


def _segment(corridor_index, segment_index):
    """Oracle: one preset segment's (name, length, speed class), by index
    arithmetic."""
    c, i = corridor_index, segment_index
    if i % 16 == 0:
        return f"s{i:04d}", 1.0, "station"
    if (c + i) % 3 == 0:
        return f"s{i:04d}", 1.5 + 0.1 * ((3 * i + c) % 12), "regional"
    return f"s{i:04d}", 2.0 + 0.1 * ((5 * i + 2 * c) % 15), "highspeed"


def _oracle_corridors(name, n_segments, demand_scale):
    """Oracle: a preset graph as ``(corridor name, rows)`` pairs, built
    segment by segment; a row is ``(name, length, speed class, demand)``."""
    from repro.network.presets import NAMED_GRAPHS

    total = NAMED_GRAPHS[name] if not n_segments else n_segments
    n_corridors = 4 if name == "demo" else max(1, total // 400)
    base, extra = divmod(total, n_corridors)
    if base == 0:
        n_corridors, base, extra = total, 1, 0
    corridors = []
    for c in range(n_corridors):
        tph, quiet = _DEMAND_TIERS[c % len(_DEMAND_TIERS)]
        demand = DemandProfile(trains_per_hour=tph,
                               night_quiet_hours=quiet).scaled(demand_scale)
        count = base + (1 if c < extra else 0)
        corridors.append((f"c{c:02d}", [(*_segment(c, i), demand)
                                        for i in range(count)]))
    return corridors


def _resolved_columns(graph):
    """Per-segment (speed class, demand) values behind the index columns."""
    return ([graph.speed_classes[k] for k in graph.speed_index.tolist()],
            [graph.demands[k] for k in graph.demand_index.tolist()])


class TestColumnarGraph:
    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("name,n_segments", [
        ("demo", 0), ("national", 0), ("national", 10), ("national", 399),
        ("national", 401), ("national", 10_001)])
    def test_build_graph_matches_per_segment_oracle(self, name, n_segments,
                                                    scale):
        corridors = _oracle_corridors(name, n_segments, scale)
        rows = [row for _, corridor in corridors for row in corridor]
        graph = build_graph(name, n_segments=n_segments, demand_scale=scale)

        assert graph.corridor_names == tuple(c for c, _ in corridors)
        assert graph.segment_names == tuple(
            f"{c}/{row[0]}" for c, corridor in corridors for row in corridor)
        classes, demands = _resolved_columns(graph)
        assert classes == [row[2] for row in rows]
        assert demands == [row[3] for row in rows]
        oracle_lengths = np.array([row[1] for row in rows])
        assert np.array_equal(graph.segment_length_km.view(np.int64),
                              oracle_lengths.view(np.int64))
        # Python sum per corridor, then across corridors: the order that
        # gives the same bits on 3.11 and 3.12.
        assert graph.length_km == sum(sum(row[1] for row in corridor)
                                      for _, corridor in corridors)
        assert len(graph.demands) == len(set(graph.demands))
        for i in (0, graph.n_segments // 2, graph.n_segments - 1):
            assert graph.segment_name(i) == graph.segment_names[i]

    def test_build_graph_memo_resolves_size_spellings(self):
        graph = build_graph("national")
        assert build_graph("national", n_segments=0) is graph
        assert build_graph("national", n_segments=10_000) is graph
        assert build_graph("national", 10_000) is graph
        assert build_graph("national", 10_000, 1) is graph

    def test_graph_is_immutable(self):
        graph = build_graph("demo")
        with pytest.raises(ValueError):
            graph.segment_length_km[0] = 5.0
        with pytest.raises(AttributeError):
            graph.corridor_names = ("x",)

    @pytest.mark.parametrize("change,error", [
        ({"segment_length_km": [1.0, 0.0]}, GeometryError),
        ({"segment_length_km": [1.0, -2.0]}, GeometryError),
        ({"segment_length_km": [1.0, math.nan]}, GeometryError),
        ({"segment_length_km": [math.inf, 1.0]}, GeometryError),
        ({"speed_classes": ("maglev",)}, ConfigurationError),
        ({"local_names": ("a", "")}, ConfigurationError),
        ({"local_names": ("a", "a")}, ConfigurationError),
        ({"corridor_names": ("",)}, ConfigurationError),
        ({"corridor_names": ("c", "c"), "corridor_sizes": [1, 1]},
         ConfigurationError),
        ({"corridor_names": (), "corridor_sizes": []}, ConfigurationError),
        ({"corridor_names": ("c", "d"), "corridor_sizes": [2, 0]},
         ConfigurationError),
        ({"demand_index": [0, 1]}, ConfigurationError),
        ({"speed_index": [0]}, ConfigurationError),
    ])
    def test_constructor_validates_the_columns(self, change, error):
        columns = dict(
            corridor_names=("c",), corridor_sizes=[2],
            local_names=("a", "b"), segment_length_km=[1.0, 2.0],
            speed_classes=("highspeed",), speed_index=[0, 0],
            demands=(DemandProfile(),), demand_index=[0, 0])
        NetworkGraph(**columns)
        with pytest.raises(error):
            NetworkGraph(**{**columns, **change})

    def test_one_energy_evaluation_per_distinct_profile(self, monkeypatch):
        import repro.network.frontier as frontier

        calls = []
        original = frontier.segment_energy

        def spy(layout, mode, params):
            calls.append((layout, mode, params.traffic))
            return original(layout, mode, params)

        monkeypatch.setattr(frontier, "segment_energy", spy)
        graph = build_graph("national")
        frontiers = segment_frontiers(graph, resolution_m=RESOLUTION_M)
        profiles = set(zip(*_resolved_columns(graph)))
        # 25 corridors share 4 demand tiers: 12 (class, demand) profiles.
        assert len(graph.corridor_names) == 25 and len(profiles) == 12
        assert len(calls) == len(set(calls))
        assert {traffic for _, _, traffic in calls} == {
            demand.traffic(SPEED_CLASSES[name].train_speed_kmh)
            for name, demand in profiles}
        assert len(calls) <= len(frontiers.options) * len(profiles)


# -- budget monotonicity ------------------------------------------------------


class TestBudgetMonotonicity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_relaxing_energy_budget_never_increases_cost(self, seed):
        rng = np.random.default_rng(seed)
        frontiers = _frontiers(scale=float(rng.uniform(0.5, 2.0)))
        lo = frontiers.min_energy_w()
        hi = optimize_network(frontiers=frontiers).total_energy_w
        budgets = np.sort(rng.uniform(lo, 1.5 * hi, size=8))
        costs = [optimize_network(frontiers=frontiers,
                                  energy_budget_w=float(b)).total_cost_eur
                 for b in budgets]
        assert all(a >= b for a, b in zip(costs, costs[1:]))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_budget_is_respected(self, seed):
        rng = np.random.default_rng(seed)
        frontiers = _frontiers()
        lo = frontiers.min_energy_w()
        for budget in rng.uniform(lo, 2.0 * lo, size=5):
            plan = optimize_network(frontiers=frontiers,
                                    energy_budget_w=float(budget))
            assert plan.total_energy_w <= budget
            assert plan.energy_budget_w == float(budget)

    def test_cost_budget_swaps_roles(self):
        frontiers = _frontiers()
        cheapest = optimize_network(frontiers=frontiers)
        budget = 1.2 * cheapest.total_cost_eur
        plan = optimize_network(frontiers=frontiers, cost_budget_eur=budget)
        assert plan.total_cost_eur <= budget
        # With cost headroom the optimizer buys energy savings.
        assert plan.total_energy_w <= cheapest.total_energy_w

    def test_both_budgets_checked(self):
        frontiers = _frontiers()
        cheapest = optimize_network(frontiers=frontiers)
        plan = optimize_network(frontiers=frontiers,
                                energy_budget_w=1.1 * cheapest.total_energy_w,
                                cost_budget_eur=1.1 * cheapest.total_cost_eur)
        assert plan.total_cost_eur <= 1.1 * cheapest.total_cost_eur
        with pytest.raises(InfeasibleError) as err:
            optimize_network(frontiers=frontiers,
                             energy_budget_w=frontiers.min_energy_w(),
                             cost_budget_eur=0.5 * cheapest.total_cost_eur)
        assert err.value.minimum > err.value.budget


# -- demand monotonicity ------------------------------------------------------


class TestDemandMonotonicity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_adding_demand_never_grows_sleeping_set(self, seed):
        rng = np.random.default_rng(seed)
        scales = np.sort(rng.uniform(0.25, 4.0, size=6))
        sleeping = []
        for scale in scales:
            frontiers = _frontiers(scale=float(scale))
            plan = optimize_network(frontiers=frontiers)
            sleeping.append(frozenset(np.flatnonzero(plan.sleeping)))
        for bigger, smaller in zip(sleeping, sleeping[1:]):
            assert smaller <= bigger

    def test_sleep_rule_is_headway_threshold(self):
        catalog = TechnologyCatalog(min_sleep_headway_s=300.0)
        assert catalog.sleep_eligible(DemandProfile(trains_per_hour=8.0))
        assert catalog.sleep_eligible(DemandProfile(trains_per_hour=12.0))
        assert not catalog.sleep_eligible(DemandProfile(trains_per_hour=16.0))

    def test_demand_can_make_options_infeasible(self):
        # Station-class segments at 24 trains/h cannot schedule their
        # traffic on the sparse relay/repeater grids: occupancy exceeds
        # headway, so those options must drop out (not crash).
        calm = _frontiers(scale=1.0)
        dense = _frontiers(scale=3.0)
        assert (~dense.feasible).sum() > (~calm.feasible).sum()
        assert dense.feasible.any(axis=1).all()  # but nothing is stranded


# -- infeasibility discipline -------------------------------------------------


class TestInfeasibility:
    def test_raises_only_after_full_scan_with_minima(self):
        frontiers = _frontiers()
        minimum = frontiers.min_energy_w()
        with pytest.raises(InfeasibleError) as err:
            optimize_network(frontiers=frontiers,
                             energy_budget_w=0.5 * minimum)
        exc = err.value
        assert exc.minimum == minimum
        assert exc.budget == 0.5 * minimum
        # the full [segment, option] grid was scanned before raising
        assert exc.scanned_options == frontiers.scanned_options
        assert exc.scanned_options \
            == frontiers.n_segments * len(frontiers.options)

    def test_budget_at_minimum_is_feasible(self):
        frontiers = _frontiers()
        plan = optimize_network(frontiers=frontiers,
                                energy_budget_w=frontiers.min_energy_w())
        assert plan.total_energy_w <= frontiers.min_energy_w()

    def test_stranded_segment_reports_after_full_scan(self):
        # An unreachable radio criterion leaves a segment with no feasible
        # option at all (the relay exemption is excluded from the catalog).
        catalog = TechnologyCatalog(technologies=("repeater",))
        graph = NetworkGraph(
            corridor_names=("c",), corridor_sizes=[1], local_names=("s",),
            segment_length_km=[2.0], speed_classes=("highspeed",),
            speed_index=[0], demands=(DemandProfile(),), demand_index=[0])
        frontiers = segment_frontiers(graph, catalog, threshold_db=1e9,
                                      resolution_m=RESOLUTION_M)
        with pytest.raises(InfeasibleError) as err:
            optimize_network(frontiers=frontiers)
        assert err.value.scanned_options == frontiers.scanned_options

    def test_unknown_inputs_raise_configuration_errors(self):
        graph = build_graph("demo", n_segments=4)
        for engine in ("quantum", "scalar"):
            with pytest.raises(ConfigurationError, match="batched"):
                segment_frontiers(graph, engine=engine)
        with pytest.raises(ConfigurationError):
            TechnologyCatalog(technologies=("carrier-pigeon",))
        with pytest.raises(ConfigurationError):
            optimize_network()
        with pytest.raises(ConfigurationError):
            optimize_network(frontiers=_frontiers(segments=4),
                             resolution_m=10.0)


# -- assignment surface -------------------------------------------------------


class TestAssignmentSurface:
    def test_rows_table_and_counts_are_consistent(self):
        frontiers = _frontiers(segments=12)
        plan = optimize_network(frontiers=frontiers)
        rows = plan.rows()
        assert len(rows) == 12
        counts = plan.technology_counts()
        assert sum(v for k, v in counts.items() if k != "solar") == 12
        text = plan.table(limit=5)
        assert "network assignment" in text
        assert rows[0][0] in text

    def test_negative_table_limit_is_rejected(self):
        plan = optimize_network(frontiers=_frontiers(segments=12))
        assert "first 0 of 12 segments" in plan.table(limit=0)
        with pytest.raises(ConfigurationError):
            plan.table(limit=-3)

    def test_catalog_round_trips_comma_names(self):
        catalog = TechnologyCatalog.from_names("conventional,mobile_relay")
        labels = [o.label for o in catalog.options()]
        assert labels == ["conventional@500", "mobile_relay@2650"]


# -- unique-row solving vs. the full-row reference ----------------------------


def _full_row_select(frontiers, objective, constrained, lam):
    """Reference per-segment argmin over every ``[segment, option]`` row."""
    feasible = frontiers.feasible
    score = np.where(feasible, objective + lam * constrained, np.inf)
    best = score.min(axis=1, keepdims=True)
    tied = score == best
    tie_metric = np.where(tied, np.where(feasible, constrained, np.inf),
                          np.inf)
    best_metric = tie_metric.min(axis=1, keepdims=True)
    return np.argmax(tie_metric == best_metric, axis=1)


def _full_row_total(choice, values):
    return float(values[np.arange(choice.size), choice].sum())


def _full_row_solve(frontiers, objective, constrained, budget):
    """Reference Lagrangian bisection (64 iterations, doubling bracket)."""
    choice = _full_row_select(frontiers, objective, constrained, 0.0)
    if _full_row_total(choice, constrained) <= budget:
        return choice, 0.0
    masked = np.where(frontiers.feasible, constrained, np.inf)
    if float(masked.min(axis=1).sum()) > budget:
        raise InfeasibleError("below the minimum")
    hi = 1.0
    for _ in range(200):
        choice = _full_row_select(frontiers, objective, constrained, hi)
        if _full_row_total(choice, constrained) <= budget:
            break
        hi *= 2.0
    lo = 0.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        choice = _full_row_select(frontiers, objective, constrained, mid)
        if _full_row_total(choice, constrained) <= budget:
            hi = mid
        else:
            lo = mid
    return _full_row_select(frontiers, objective, constrained, hi), hi


def _assert_matches_reference(frontiers, *, energy_budget_w=None,
                              cost_budget_eur=None):
    """The optimizer's plan equals the full-row reference bit for bit."""
    cost, energy = frontiers.cost_eur, frontiers.energy_w
    try:
        if energy_budget_w is not None:
            choice, lam = _full_row_solve(frontiers, cost, energy,
                                          energy_budget_w)
        else:
            choice, lam = _full_row_solve(frontiers, energy, cost,
                                          cost_budget_eur)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            optimize_network(frontiers=frontiers,
                             energy_budget_w=energy_budget_w,
                             cost_budget_eur=cost_budget_eur)
        return False
    plan = optimize_network(frontiers=frontiers,
                            energy_budget_w=energy_budget_w,
                            cost_budget_eur=cost_budget_eur)
    assert np.array_equal(plan.option_index, choice)
    assert plan.lambda_star == lam
    assert plan.total_energy_w == _full_row_total(choice, energy)
    assert plan.total_cost_eur == _full_row_total(choice, cost)
    return True


class TestUniqueRowSolving:
    @pytest.mark.parametrize("technologies", [
        "conventional,repeater,mobile_relay", "conventional,repeater"])
    @pytest.mark.parametrize("scale", [0.5, 1.0, 2.0])
    def test_plans_match_full_row_reference(self, scale, technologies):
        graph = build_graph("national", n_segments=1500, demand_scale=scale)
        frontiers = segment_frontiers(
            graph, TechnologyCatalog.from_names(technologies),
            resolution_m=RESOLUTION_M)
        assert len(frontiers.row_groups[0]) < frontiers.n_segments // 10
        minimum = frontiers.min_energy_w()
        energy_budgets = [0.99 * minimum, *np.linspace(
            minimum, 200.0 * graph.length_km, 24)]
        feasible = [_assert_matches_reference(frontiers, energy_budget_w=b)
                    for b in energy_budgets]
        assert feasible[0] is False and all(feasible[1:])
        min_cost = float(np.where(frontiers.feasible, frontiers.cost_eur,
                                  np.inf).min(axis=1).sum())
        for factor in (0.99, 1.0, 1.02, 1.1, 1.5):
            _assert_matches_reference(frontiers,
                                      cost_budget_eur=factor * min_cost)

    def test_near_tie_budget_keeps_bisection_plan(self):
        # Two distinct rows' exact crossing prices lie 7 and 8 ulps above
        # lambda*.  Selecting at those prices, as an exact breakpoint walk
        # would, gives a 4055.64 MEUR plan instead of this one.
        graph = build_graph("national", demand_scale=0.5)
        frontiers = segment_frontiers(
            graph, TechnologyCatalog.from_names("conventional,repeater"),
            resolution_m=25.0)
        assert _assert_matches_reference(frontiers,
                                         energy_budget_w=3_026_287.5)
        plan = optimize_network(frontiers=frontiers,
                                energy_budget_w=3_026_287.5)
        assert plan.total_cost_eur / 1e6 == pytest.approx(4052.64, abs=0.01)
        assert plan.lambda_star == pytest.approx(549.822, abs=1e-3)


_CELL_VALUES = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.0, math.nan])


@st.composite
def _duplicated_frontiers(draw):
    """Small frontiers whose segments repeat a few base rows.

    Cell values come from a tiny set, so penalized scores tie exactly at
    many prices; infeasible cells hold NaN, as both engines write them.
    Some base rows are copies of another with one cell flipped feasible
    but left NaN (possible only in a caller-built frontier): the grouping
    must keep such a row apart from its NaN-identical original.
    """
    n_options = draw(st.integers(1, 4))
    n_base = draw(st.integers(1, 4))
    shape = (n_base, n_options)
    feasible = draw(arrays(np.bool_, shape))
    energy = np.where(feasible, draw(arrays(np.float64, shape,
                                            elements=_CELL_VALUES)), np.nan)
    cost = np.where(feasible, draw(arrays(np.float64, shape,
                                          elements=_CELL_VALUES)), np.nan)
    flips = draw(st.lists(st.tuples(st.integers(0, n_base - 1),
                                    st.integers(0, n_options - 1)),
                          max_size=3))
    for row, cell in flips:
        flipped = feasible[row].copy()
        flipped[cell] = True
        feasible = np.vstack([feasible, flipped])
        energy = np.vstack([energy, energy[row]])
        cost = np.vstack([cost, cost[row]])
    rows = np.array(draw(st.lists(st.integers(0, len(feasible) - 1),
                                  min_size=1, max_size=30)))
    return SegmentFrontiers(
        graph=None, catalog=None, options=(),
        energy_w=energy[rows], cost_eur=cost[rows], feasible=feasible[rows],
        eligible=np.zeros(rows.size, dtype=bool),
        horizon_years=10.0, threshold_db=29.0)


_PRICES = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0]),
                    st.floats(0.0, 1e6, allow_nan=False))


class TestRowGroups:
    @settings(deadline=None, max_examples=200)
    @given(frontiers=_duplicated_frontiers())
    def test_groups_reproduce_the_frontier_arrays(self, frontiers):
        first, inverse = frontiers.row_groups
        # first[g] is the lowest segment index of group g.
        assert np.array_equal(first, [np.flatnonzero(inverse == g)[0]
                                      for g in range(first.size)])
        for values in (frontiers.energy_w, frontiers.cost_eur):
            assert np.array_equal(values[first][inverse], values,
                                  equal_nan=True)
        assert np.array_equal(frontiers.feasible[first][inverse],
                              frontiers.feasible)

    @settings(deadline=None, max_examples=200)
    @given(frontiers=_duplicated_frontiers(), lam=_PRICES,
           garbage=st.booleans())
    def test_grouped_select_equals_full_row_select(self, frontiers, lam,
                                                   garbage):
        if garbage:
            # A caller-built frontier may leave values in infeasible cells.
            frontiers = dataclasses.replace(
                frontiers,
                energy_w=np.where(frontiers.feasible, frontiers.energy_w,
                                  7.0),
                cost_eur=np.where(frontiers.feasible, frontiers.cost_eur,
                                  -1.0))
        for objective, constrained in (
                (frontiers.cost_eur, frontiers.energy_w),
                (frontiers.energy_w, frontiers.cost_eur)):
            assert np.array_equal(
                _select(frontiers, objective, constrained, lam),
                _full_row_select(frontiers, objective, constrained, lam))


# -- CLI budgets --------------------------------------------------------------


class TestCliBudgets:
    def _table(self, capsys, *flags):
        from repro.cli import main

        argv = ["network", "optimize", "--graph", "demo",
                "--resolution", f"{RESOLUTION_M:g}", *flags]
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_non_positive_budgets_are_unconstrained(self, capsys):
        unconstrained = self._table(capsys)
        assert "lambda*" in unconstrained
        assert self._table(capsys, "--energy-budget", "0") == unconstrained
        assert self._table(capsys, "--cost-budget", "0") == unconstrained
        assert self._table(capsys, "--cost-budget", "-5") == unconstrained

    def test_negative_limit_exits_2(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["network", "optimize", "--graph", "demo", "--limit", "-3"])
        assert exc.value.code == 2
        assert "--limit: must be >= 0" in capsys.readouterr().err


# -- non-finite inputs --------------------------------------------------------


_NON_FINITE = [math.nan, math.inf]


class TestNonFiniteInputs:
    @pytest.mark.parametrize("value", _NON_FINITE)
    @pytest.mark.parametrize("build", [
        lambda v: DemandProfile(trains_per_hour=v),
        lambda v: DemandProfile(night_quiet_hours=v),
        lambda v: DemandProfile(train_length_m=v),
        lambda v: DemandProfile().scaled(v),
        lambda v: TechnologyCatalog(min_sleep_headway_s=v),
        lambda v: Scenario.uniform(1250.0, 1, resolution_m=v),
        lambda v: segment_frontiers(build_graph("demo", n_segments=4),
                                    horizon_years=v),
        lambda v: segment_frontiers(build_graph("demo", n_segments=4),
                                    threshold_db=v),
        lambda v: segment_frontiers(build_graph("demo", n_segments=4),
                                    threshold_db=-v),
        lambda v: optimize_network(frontiers=_frontiers(segments=4),
                                   energy_budget_w=v),
        lambda v: optimize_network(frontiers=_frontiers(segments=4),
                                   cost_budget_eur=v),
    ])
    def test_library_refuses(self, build, value):
        with pytest.raises(ConfigurationError, match=str(value)):
            build(value)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", [
        "--resolution", "--horizon-years", "--min-sleep-headway",
        "--demand-scale", "--energy-budget", "--cost-budget"])
    def test_cli_exits_1_naming_the_value(self, flag, value, capsys):
        from repro.cli import main

        # An uncaught error would raise here instead of returning 1.
        assert main(["network", "optimize", "--graph", "demo", "--quiet",
                     flag, value]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("network optimization failed: ")
        assert line.endswith(f"got {value}")

    @pytest.mark.parametrize("value", [math.nan, math.inf, "many"])
    @pytest.mark.parametrize("name", [
        "demand_scale", "energy_budget_w_per_km", "cost_budget_keur_per_km",
        "min_sleep_headway_s", "resolution_m", "horizon_years"])
    def test_study_adapter_refuses_before_any_compute(self, name, value,
                                                      monkeypatch):
        import repro.study.engines as engines

        computed = []
        monkeypatch.setattr(engines, "_network_frontiers",
                            lambda *args: computed.append(args))
        good = {"graph": "demo", "energy_budget_w_per_km": 0.0,
                "resolution_m": RESOLUTION_M}
        # The bad case comes last, after a valid one.
        with pytest.raises(ConfigurationError, match=name):
            engines.run_cases("network", [good, {**good, name: value}],
                              [0, 0])
        assert computed == []
