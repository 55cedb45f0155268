"""Experiment registry and batch runner.

Used by the CLI (``repro <id>``); the registry IDs are documented in the
repository's ``EXPERIMENTS.md``.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.errors import ConfigurationError
from repro.experiments.ablations import (
    run_noise_ablation,
    run_placement_ablation,
    run_sleep_ablation,
)
from repro.experiments.extensions import (
    run_cell_border,
    run_demand,
    run_economics,
    run_emf,
    run_lifetime,
    run_robustness,
    run_traversal,
    run_uplink,
)
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.maxisd import run_maxisd
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3
from repro.experiments.table4 import run_table4
from repro.reporting.series import write_csv

__all__ = ["ALL_EXPERIMENTS", "ENGINE_KWARGS", "run_experiment", "run_all"]

#: Shared engine options every experiment may receive (and may ignore).
#: ``weather_cache`` memoizes off-grid weather-year tensors; ``trials``
#: (``ext-robust``, ``abl-noise``) and ``sigmas`` (``abl-noise``)
#: parameterize the Monte-Carlo shadowing analyses.  The grid sweeps take
#: no options here: they ship as ``studies/*.yaml`` files run by
#: ``repro study run``.
ENGINE_KWARGS = frozenset({"jobs", "cache", "weather_cache", "trials",
                           "sigmas"})


@dataclass(frozen=True)
class ExperimentSpec:
    """Registry entry: id, description, and a runner with keyword overrides."""

    experiment_id: str
    description: str
    runner: Callable[..., object]

    def accepted_kwargs(self, overrides: dict) -> dict:
        """Subset of ``overrides`` this runner's signature accepts.

        Shared engine options (:data:`ENGINE_KWARGS`) are passed to every
        experiment from the CLI; experiments that don't take them simply
        ignore them.  Any other unaccepted keyword is a caller error (most
        likely a typo) and raises instead of silently running with defaults.
        """
        parameters = inspect.signature(self.runner).parameters
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
            return dict(overrides)
        unknown = set(overrides) - set(parameters) - ENGINE_KWARGS
        if unknown:
            raise ConfigurationError(
                f"experiment {self.experiment_id!r} does not accept "
                f"{sorted(unknown)}; accepted: {sorted(parameters)}")
        return {k: v for k, v in overrides.items() if k in parameters}


ALL_EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.experiment_id: spec for spec in (
        ExperimentSpec("fig3", "Signal/noise profile, d_ISD=2400 m, N=8", run_fig3),
        ExperimentSpec("maxisd", "Registered maximum ISDs for N=1..10", run_maxisd),
        ExperimentSpec("fig4", "Average energy per km, three policies", run_fig4),
        ExperimentSpec("table1", "Repeater component power breakdown", run_table1),
        ExperimentSpec("table2", "EARTH power-model parameters", run_table2),
        ExperimentSpec("table3", "Traffic scenario and duty cycles", run_table3),
        ExperimentSpec("table4", "Off-grid PV dimensioning, four regions", run_table4),
        ExperimentSpec("abl-noise", "Ablation: repeater-noise models", run_noise_ablation),
        ExperimentSpec("abl-place", "Ablation: repeater placement", run_placement_ablation),
        ExperimentSpec("abl-sleep", "Ablation: wake-transition time", run_sleep_ablation),
        ExperimentSpec("ext-emf", "Extension: EMF compliance distances", run_emf),
        ExperimentSpec("ext-uplink", "Extension: uplink closure at max ISDs", run_uplink),
        ExperimentSpec("ext-traversal", "Extension: per-traversal data volume", run_traversal),
        ExperimentSpec("ext-econ", "Extension: 10-year cost comparison", run_economics),
        ExperimentSpec("ext-robust", "Extension: shadowing outage", run_robustness),
        ExperimentSpec("ext-lifetime", "Extension: PV system aging", run_lifetime),
        ExperimentSpec("ext-demand", "Extension: demand-driven load", run_demand),
        ExperimentSpec("ext-border", "Extension: BBU cell-border SINR", run_cell_border),
    )
}


def run_experiment(experiment_id: str, output_dir: str | Path | None = None,
                   **kwargs):
    """Run one experiment; optionally dump its CSV series to ``output_dir``.

    Keyword overrides (e.g. ``jobs``, ``cache``, ``resolution_m``) are
    forwarded to the experiment runner.  Shared engine options
    (:data:`ENGINE_KWARGS`) are dropped when the runner doesn't take them, so
    they can be applied across heterogeneous experiments; any other
    unaccepted keyword raises :class:`ConfigurationError`.

    Returns the experiment's structured result object.
    """
    spec = ALL_EXPERIMENTS.get(experiment_id)
    if spec is None:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; available: {sorted(ALL_EXPERIMENTS)}")
    result = spec.runner(**spec.accepted_kwargs(kwargs))
    if output_dir is not None and hasattr(result, "series"):
        write_csv(Path(output_dir) / f"{experiment_id}.csv", result.series())
    return result


def run_all(output_dir: str | Path | None = None,
            ids=None,
            progress: Callable[[int, int, str], None] | None = None,
            **kwargs) -> dict[str, object]:
    """Run every registered experiment (or a subset) and collect results.

    ``progress(index, total, experiment_id)`` is invoked before each
    experiment starts (1-based index), giving long grid runs a heartbeat.
    Keyword overrides are forwarded as in :func:`run_experiment`.
    """
    ids = list(ALL_EXPERIMENTS) if ids is None else list(ids)
    results: dict[str, object] = {}
    for i, eid in enumerate(ids, start=1):
        if progress is not None:
            progress(i, len(ids), eid)
        results[eid] = run_experiment(eid, output_dir, **kwargs)
    return results
