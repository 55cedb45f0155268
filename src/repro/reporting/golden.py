"""Golden-regression snapshots of the paper's tables and figures.

A *golden spec* names one experiment, the (JSON-able) kwargs it is run with,
and per-field numeric tolerances.  Sweeps that ship as ``studies/*.yaml``
files are snapshotted through the study path instead: the kwargs become
``fixed`` overrides of the shipped file (see :data:`STUDY_FILES`).
``tools/refresh_golden.py`` runs every spec and snapshots its data series
to ``tests/golden/<id>.json``;
``tests/test_golden_regression.py`` re-runs the specs and diffs against the
snapshots, so any drift in the reproduced Table I-IV / Fig. 3-4 numbers —
from a refactor, an engine change, or a dependency bump — fails loudly with
a per-field report instead of silently shifting the paper's results.

Numeric fields compare with ``abs(cur - ref) <= atol + rtol * abs(ref)``
(NaN matches NaN — infeasible cells are stable results too); everything else
compares exactly.  NaN/inf are stored as JSON strings since JSON has no
representation for them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError

__all__ = ["GoldenSpec", "GOLDEN_SPECS", "STUDY_FILES", "spec_for",
           "compute_series", "save_snapshot", "load_snapshot",
           "compare_series", "golden_path"]

#: Default tolerances: tight enough to catch any real modelling drift, loose
#: enough to absorb libm / summation-order differences across platforms.
_RTOL = 1e-9
_ATOL = 1e-12

#: The shipped study files live at the repository root, beside ``src/``.
_STUDIES_DIR = Path(__file__).resolve().parents[3] / "studies"

#: Golden ids computed from a shipped study file rather than an experiment.
STUDY_FILES = {"network": "national_network.yaml"}


@dataclass(frozen=True)
class GoldenSpec:
    """One snapshotted experiment: id, kwargs, and numeric tolerances."""

    experiment_id: str
    kwargs: dict = field(default_factory=dict)
    rtol: float = _RTOL
    atol: float = _ATOL
    #: Per-field (rtol, atol) overrides, e.g. for Monte-Carlo-derived columns.
    field_tolerances: dict = field(default_factory=dict)

    def tolerances(self, field_name: str) -> tuple[float, float]:
        return self.field_tolerances.get(field_name, (self.rtol, self.atol))


#: The snapshotted set: Table I-IV, the Fig. 3/4 series, and the network
#: optimizer's headline table.  Fig. 3 uses a 10 m grid to keep the snapshot
#: compact; the fidelity tests cover the fine grid separately.  The network
#: sweep is ``studies/national_network.yaml`` on a 1500-segment graph — the
#: same code path as the shipped 10 000-segment study, at snapshot-friendly
#: size.
GOLDEN_SPECS: tuple[GoldenSpec, ...] = (
    GoldenSpec("table1"),
    GoldenSpec("table2"),
    GoldenSpec("table3"),
    GoldenSpec("table4"),
    GoldenSpec("fig3", kwargs={"resolution_m": 10.0}),
    GoldenSpec("fig4"),
    # The network optimizer is deterministic, but its totals aggregate ~1500
    # segments and the Lagrangian bisection sits on knife-edge tie-breaks —
    # give the summed monetary/energy columns a little extra room.
    GoldenSpec("network", kwargs={"segments": 1500},
               field_tolerances={
                   "total_cost_meur": (1e-6, 1e-9),
                   "total_energy_kw": (1e-6, 1e-9),
                   "mean_w_per_km": (1e-6, 1e-9),
                   "sleeping_fraction": (1e-9, 1e-12),
               }),
)


def spec_for(experiment_id: str) -> GoldenSpec:
    for spec in GOLDEN_SPECS:
        if spec.experiment_id == experiment_id:
            return spec
    raise ConfigurationError(
        f"no golden spec for {experiment_id!r}; "
        f"available: {[s.experiment_id for s in GOLDEN_SPECS]}")


def golden_path(directory: str | Path, spec: GoldenSpec) -> Path:
    return Path(directory) / f"{spec.experiment_id}.json"


def _sanitize(value):
    """JSON-able snapshot of one series cell (NaN/inf become strings)."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    number = float(value)
    if math.isnan(number):
        return "NaN"
    if math.isinf(number):
        return "Infinity" if number > 0 else "-Infinity"
    return number


def _restore(value):
    if value == "NaN":
        return float("nan")
    if value == "Infinity":
        return float("inf")
    if value == "-Infinity":
        return float("-inf")
    return value


def _study_series(spec: GoldenSpec) -> dict[str, list]:
    """Axis and engine-metric columns of the spec's shipped study file."""
    from repro.study import STUDY_ENGINES, load_study, run_study

    study = load_study(_STUDIES_DIR / STUDY_FILES[spec.experiment_id])
    study = study.with_overrides(**spec.kwargs)
    columns = run_study(study).table.wide()
    names = study.axis_names + STUDY_ENGINES[study.engine].metrics
    return {name: columns[name] for name in names}


def compute_series(spec: GoldenSpec) -> dict[str, list]:
    """Run the experiment (or study) and return its sanitized data series."""
    if spec.experiment_id in STUDY_FILES:
        series = _study_series(spec)
    else:
        from repro.experiments.runner import run_experiment

        result = run_experiment(spec.experiment_id, **spec.kwargs)
        if not hasattr(result, "series"):
            raise ConfigurationError(
                f"experiment {spec.experiment_id!r} has no series() to "
                f"snapshot")
        series = result.series()
    return {name: [_sanitize(v) for v in values]
            for name, values in series.items()}


def save_snapshot(spec: GoldenSpec, directory: str | Path) -> Path:
    """Run one spec and write its snapshot; returns the written path."""
    path = golden_path(directory, spec)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "experiment": spec.experiment_id,
        "kwargs": spec.kwargs,
        "series": compute_series(spec),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_snapshot(spec: GoldenSpec, directory: str | Path) -> dict[str, list]:
    path = golden_path(directory, spec)
    if not path.exists():
        raise ConfigurationError(
            f"missing golden snapshot {path}; run tools/refresh_golden.py")
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("kwargs", {}) != spec.kwargs:
        raise ConfigurationError(
            f"snapshot {path} was taken with kwargs {payload.get('kwargs')}, "
            f"spec now says {spec.kwargs}; refresh the snapshot")
    return {name: [_restore(v) for v in values]
            for name, values in payload["series"].items()}


def _cells_match(cur, ref, rtol: float, atol: float) -> bool:
    cur, ref = _restore(cur), _restore(ref)
    if isinstance(cur, (int, float)) and isinstance(ref, (int, float)) \
            and not isinstance(cur, bool) and not isinstance(ref, bool):
        if math.isnan(cur) or math.isnan(ref):
            return math.isnan(cur) and math.isnan(ref)
        if math.isinf(cur) or math.isinf(ref):
            return cur == ref
        return abs(cur - ref) <= atol + rtol * abs(ref)
    return cur == ref


def compare_series(spec: GoldenSpec, current: dict[str, list],
                   reference: dict[str, list]) -> list[str]:
    """Per-field diff report; empty when the run matches its snapshot."""
    problems: list[str] = []
    missing = set(reference) - set(current)
    extra = set(current) - set(reference)
    if missing:
        problems.append(f"fields missing from current run: {sorted(missing)}")
    if extra:
        problems.append(f"fields not in snapshot: {sorted(extra)}")
    for name in sorted(set(current) & set(reference)):
        cur, ref = current[name], reference[name]
        if len(cur) != len(ref):
            problems.append(f"{name}: length {len(cur)} != snapshot {len(ref)}")
            continue
        rtol, atol = spec.tolerances(name)
        bad = [i for i, (c, r) in enumerate(zip(cur, ref))
               if not _cells_match(c, r, rtol, atol)]
        if bad:
            i = bad[0]
            problems.append(
                f"{name}: {len(bad)} cell(s) drifted, first at [{i}]: "
                f"{current[name][i]!r} != snapshot {reference[name][i]!r} "
                f"(rtol={rtol}, atol={atol})")
    return problems
