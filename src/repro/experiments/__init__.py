"""Experiment runners — one per table/figure of the paper.

Each module exposes ``run(...)`` returning a structured result with
``.table()`` (human-readable) and ``.series()`` (CSV-able columns).  The
:mod:`repro.experiments.runner` drives them all and is what the CLI and
EXPERIMENTS.md generation use.
"""

from repro._lazy import lazy_exports

__all__ = [
    "run_fig3",
    "run_fig4",
    "run_maxisd",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_table4",
    "ALL_EXPERIMENTS",
    "run_all",
    "run_experiment",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "fig3": ("run_fig3",),
    "fig4": ("run_fig4",),
    "maxisd": ("run_maxisd",),
    "table1": ("run_table1",),
    "table2": ("run_table2",),
    "table3": ("run_table3",),
    "table4": ("run_table4",),
    "runner": ("ALL_EXPERIMENTS", "run_all", "run_experiment"),
})
