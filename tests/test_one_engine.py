"""One engine per workload: no public callable selects a kernel or engine.

Every production path runs its batch engine on the fused kernels, and the
max-ISD searches bisect.  The scalar engines, step-loop kernels and full
max-ISD scans are test oracles (``tests/oracles/``), and Eq. (2) has one
implementation, the batched kernel every entry point reaches, so no public
:mod:`repro` callable takes ``backend=`` or ``exhaustive=``, ``engine=``
appears only where it names a study adapter (and on the network frontier
pass, which accepts only ``"batched"``), and no ``src/`` module imports the
oracles.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent

#: Public callables that keep an ``engine`` parameter, and why.
ENGINE_ALLOWLIST = {
    # The study-adapter id: which engine a study runs, not an alternative
    # implementation of one.
    "repro.study.spec.StudySpec",
    "repro.study.results.StudyTable",
    "repro.study.manifest.ShardManifest",
    "repro.service.schemas.JobView",
    "repro.study.engines.run_cases",
    "repro.study.engines.import_engine",
    # The network frontier pass accepts only ``engine="batched"``: its
    # per-segment walk is the test oracle ``oracles.network``.  The
    # parameter goes once perfbench's replay stops passing it through
    # ``optimize_network``.
    "repro.network.frontier.segment_frontiers",
}


def _public_callables():
    """``(qualified name, callable)`` for every public function and class a
    ``repro`` module defines, plus the public methods of those classes."""
    names = [m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
             if not m.name.endswith("__main__")]
    for module_name in names:
        module = importlib.import_module(module_name)
        for name, obj in list(vars(module).items()):
            if (name.startswith("_") or not callable(obj)
                    or getattr(obj, "__module__", None) != module_name):
                continue
            qualified = f"{module_name}.{obj.__qualname__}"
            yield qualified, obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member):
                        yield f"{qualified}.{attr}", member


def _parameters(obj) -> set[str]:
    try:
        return set(inspect.signature(obj).parameters)
    except (TypeError, ValueError):
        return set()


CALLABLES = dict(_public_callables())


def test_the_walk_covers_the_engines():
    for name in ("repro.optimize.mc.outage_matrix",
                 "repro.optimize.isd.sweep_max_isd",
                 "repro.optimize.robustness.robust_max_isd",
                 "repro.experiments.maxisd.run_maxisd",
                 "repro.simulation.batch.simulate_days",
                 "repro.solar.batch.simulate_systems",
                 "repro.solar.degradation.project_lifetime",
                 "repro.kernels.numpy_fused.ar1_min_scan",
                 "repro.optimize.mc.min_snr_matrix",
                 "repro.simulation.batch.DayBatchResult.mean_w_per_km"):
        assert name in CALLABLES, name
    assert len(CALLABLES) > 300


def test_no_public_callable_takes_a_backend():
    offenders = sorted(name for name, obj in CALLABLES.items()
                       if "backend" in _parameters(obj))
    assert offenders == []


def test_no_public_callable_takes_exhaustive():
    offenders = sorted(name for name, obj in CALLABLES.items()
                       if "exhaustive" in _parameters(obj))
    assert offenders == []


def test_engine_appears_only_on_the_allowlist():
    takes_engine = {name for name, obj in CALLABLES.items()
                    if "engine" in _parameters(obj)}
    assert takes_engine == ENGINE_ALLOWLIST


def test_no_src_module_imports_the_oracles():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            offenders += [f"{path.relative_to(SRC)}: {m}" for m in modules
                          if m.split(".")[0] == "oracles"]
    assert offenders == []


def _mc_engine_call(tmp_path):
    from repro.study.engines import STUDY_ENGINES, run_cases

    case = STUDY_ENGINES["mc"].resolve(
        {"isd_m": 1800.0, "n_repeaters": 4, "resolution_m": 10.0,
         "trials": 5})
    # A fresh cache directory, so no profile memo of an earlier test hits.
    run_cases("mc", [case], [3], {"cache_dir": str(tmp_path)})


def _uplink(tmp_path):
    from repro.experiments.extensions import run_uplink

    run_uplink(resolution_m=20.0)


def _traversal(tmp_path):
    from repro.corridor.layout import CorridorLayout
    from repro.mobility.traversal import simulate_traversal

    simulate_traversal(CorridorLayout.with_uniform_repeaters(1800.0, 4),
                       time_step_s=0.5)


def _profile(tmp_path):
    from repro.corridor.layout import CorridorLayout
    from repro.radio.link import compute_snr_profile

    compute_snr_profile(CorridorLayout.with_uniform_repeaters(1800.0, 4))


@pytest.mark.parametrize("entry", [_profile, _traversal, _uplink,
                                   _mc_engine_call],
                         ids=["compute_snr_profile", "simulate_traversal",
                              "run_uplink", "mc_engine"])
def test_every_eq2_entry_runs_the_batched_kernel(entry, monkeypatch,
                                                 tmp_path):
    """Eq. (2) has one implementation in ``src/``: the batched kernel."""
    from repro.radio import batch

    calls = []
    kernel = batch._evaluate_group

    def spy(scenarios):
        calls.append(len(scenarios))
        return kernel(scenarios)

    monkeypatch.setattr(batch, "_evaluate_group", spy)
    entry(tmp_path)
    assert calls
