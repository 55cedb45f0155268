"""Deployment economics — the sustainability argument in currency.

The paper argues energy; an operator decides on total cost.  This package
prices the two deployments (conventional HP-only corridor vs. the
repeater-extended corridor) over a planning horizon: equipment and
installation CAPEX, energy and maintenance OPEX, and the payback period of
the repeater retrofit.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CostAssumptions",
    "DeploymentCost",
    "corridor_cost",
    "retrofit_payback_years",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "costmodel": (
        "CostAssumptions", "DeploymentCost", "corridor_cost",
        "retrofit_payback_years",
    ),
})
