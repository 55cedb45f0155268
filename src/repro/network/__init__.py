"""Multi-corridor network model and demand-aware topology optimizer.

Generalizes the single-corridor analysis to a national rail *network*: a
:class:`~repro.network.graph.NetworkGraph` of named corridors whose segments
carry their own length, speed class and offered traffic demand
(:class:`~repro.network.graph.DemandProfile`, derivable from
:mod:`repro.traffic` timetables), plus a network-level optimizer
(:mod:`repro.network.optimize`) that assigns every segment one of three
technologies — conventional macro grid, out-of-band repeater chain, or the
mmWave onboard-relay alternative of :mod:`repro.baselines` — and a
demand-aware sleep policy, under global energy and cost budgets.

Per-segment technology frontiers are computed in one batched pass
(:func:`~repro.network.frontier.segment_frontiers` dedupes unique layouts
through :func:`repro.radio.batch.evaluate_scenarios` and unique
(speed class, demand) profiles through
:func:`repro.energy.scenario.segment_energy`); the assignment itself is a
Lagrangian bisection over the frontier's distinct rows — never a
per-segment Python loop.  A bit-identical ``engine="scalar"`` per-segment
reference is pinned by ``tests/test_engine_parity.py``.

Quickstart::

    from repro.network import build_graph, optimize_network

    graph = build_graph("national", n_segments=10_000)
    plan = optimize_network(graph, energy_budget_w=2.4e6)
    print(plan.table())
"""

from repro._lazy import lazy_exports

__all__ = [
    "SpeedClass",
    "SPEED_CLASSES",
    "DemandProfile",
    "NetworkSegment",
    "Corridor",
    "NetworkGraph",
    "Technology",
    "TechnologyOption",
    "TechnologyCatalog",
    "SegmentFrontiers",
    "segment_frontiers",
    "fixed_options_power_w",
    "NetworkAssignment",
    "optimize_network",
    "NAMED_GRAPHS",
    "build_graph",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "graph": (
        "Corridor", "DemandProfile", "NetworkGraph", "NetworkSegment",
        "SPEED_CLASSES", "SpeedClass",
    ),
    "frontier": (
        "SegmentFrontiers", "Technology", "TechnologyCatalog",
        "TechnologyOption", "fixed_options_power_w", "segment_frontiers",
    ),
    "optimize": ("NetworkAssignment", "optimize_network"),
    "presets": ("NAMED_GRAPHS", "build_graph"),
})
