"""Import layering: lazy package front doors and per-subcommand import budgets.

Every ``repro`` package ``__init__`` resolves its public names on first use
(:mod:`repro._lazy`), engines are imported where they are used, and only
the experiment path of the CLI loads :mod:`repro.experiments`.  These tests
count modules in fresh interpreters (``sys.modules``); they never time
anything.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
REPO_ROOT = SRC.parent
STUDIES = REPO_ROOT / "studies"

#: Packages whose ``__init__`` is a lazy front door (``repro`` itself plus
#: every subpackage except :mod:`repro.kernels`, which eagerly re-exports
#: its one implementation module, :mod:`repro.kernels.numpy_fused`).
LAZY_PACKAGES = sorted(
    ["repro"] + [f"repro.{init.parent.name}"
                 for init in SRC.glob("repro/*/__init__.py")
                 if init.parent.name != "kernels"])

#: Batch-engine packages a run must not load unless its engine needs them.
ENGINE_PACKAGES = ("repro.radio", "repro.solar", "repro.simulation",
                   "repro.network")

#: Shipped study → the engine packages its run may load.  The mc and
#: network engines evaluate Eq. (2) profiles through :mod:`repro.radio`.
STUDY_ENGINE_PACKAGES = {
    "sim_grid": {"repro.simulation"},
    "robustness_grid": {"repro.radio"},
    "table4_grid": {"repro.solar"},
    "national_network": {"repro.network", "repro.radio"},
}

#: Study modules only shard/merge/refresh runs need.
SHARD_ONLY_MODULES = {"repro.study.distributed", "repro.study.manifest"}

_MODULES_AFTER = """
import json, runpy, sys
sys.argv = ["repro", *json.loads(sys.argv[1])]
try:
    runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
else:
    code = 0
print(json.dumps({"exit": code, "modules": sorted(sys.modules)}))
"""


def _python(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=REPO_ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def _cli_modules(*argv: str) -> tuple[int, set[str]]:
    """Exit code and ``repro`` modules of one fresh ``python -m repro``."""
    result = json.loads(_python(_MODULES_AFTER, json.dumps(argv)))
    return result["exit"], {m for m in result["modules"]
                            if m == "repro" or m.startswith("repro.")}


def _loaded(modules: set[str], package: str) -> set[str]:
    return {m for m in modules if m == package or m.startswith(package + ".")}


class TestEveryModuleImportsAlone:
    def test_walk_packages_in_a_clean_repro_namespace(self):
        """Each module imports with no other ``repro`` module loaded, so no
        import order hides a cycle between packages."""
        code = """
import importlib, json, pkgutil, sys, traceback
import repro
names = ["repro"] + [m.name for m in
                     pkgutil.walk_packages(repro.__path__, "repro.")]
failures = {}
for name in names:
    for key in [k for k in sys.modules
                if k == "repro" or k.startswith("repro.")]:
        del sys.modules[key]
    try:
        importlib.import_module(name)
    except Exception:
        failures[name] = traceback.format_exc(limit=-3)
print(json.dumps({"count": len(names), "failures": failures}))
"""
        result = json.loads(_python(code))
        assert result["failures"] == {}
        assert result["count"] > 100


class TestImportBudget:
    def test_importing_the_cli_stays_small(self):
        modules = json.loads(_python(
            "import json, sys, repro.cli; print(json.dumps(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'repro')))"))
        assert len(modules) <= 40, modules
        assert "repro.experiments" not in modules

    def test_kernels_load_only_the_fused_kernels(self):
        # The step-loop kernels are test oracles: importing the kernels
        # front door loads it and the fused implementation, nothing else.
        added = json.loads(_python(
            "import json, sys, repro\n"
            "before = set(sys.modules)\n"
            "import repro.kernels\n"
            "print(json.dumps(sorted(m for m in set(sys.modules) - before "
            "if m.split('.')[0] == 'repro')))"))
        assert added == ["repro.kernels", "repro.kernels.numpy_fused"]

    def test_study_list_loads_no_engine(self, tmp_path):
        code, modules = _cli_modules("study", "list", str(tmp_path))
        assert code == 1  # "no study files"
        for package in ("repro.experiments",) + ENGINE_PACKAGES:
            assert not _loaded(modules, package), package
        assert not modules & SHARD_ONLY_MODULES

    @pytest.mark.parametrize("study", sorted(STUDY_ENGINE_PACKAGES))
    def test_study_run_loads_only_its_engine(self, study):
        code, modules = _cli_modules(
            "study", "run", str(STUDIES / f"{study}.yaml"), "--quiet",
            "--shards", "4", "--max-shards", "1")
        assert code == 3  # one of four shards computed: a partial run
        assert not _loaded(modules, "repro.experiments")
        assert not modules & SHARD_ONLY_MODULES
        allowed = STUDY_ENGINE_PACKAGES[study]
        for package in ENGINE_PACKAGES:
            assert bool(_loaded(modules, package)) == (package in allowed), \
                package

    def test_experiment_path_loads_the_experiments(self):
        code, modules = _cli_modules("list")
        assert code == 0
        assert "repro.experiments.runner" in modules


_ENGINE_CLOSURE = """
import json, sys
from repro.study.engines import import_engine
from repro.study.runner import run_study
from repro.study.spec import load_study, study_from_mapping
arg = sys.argv[1]
spec = (load_study(arg) if arg.endswith(".yaml") else study_from_mapping(
    {"name": "radio_probe", "engine": "radio",
     "axes": {"isd_m": [1200, 1600], "n_repeaters": [0, 2]}}))
import_engine(spec.engine)
before = set(sys.modules)
run_study(spec, shards=4, max_shards=1)
print(json.dumps([spec.engine, sorted(set(sys.modules) - before)]))
"""


class TestPoolParentImportsTheEngine:
    @pytest.mark.parametrize("study",
                             ["radio"] + sorted(STUDY_ENGINE_PACKAGES))
    def test_import_engine_covers_the_runner(self, study):
        """After :func:`~repro.study.engines.import_engine`, running the
        engine imports nothing more — no ``repro`` module and no lazily
        loaded numpy subpackage — so pool workers forked after it inherit
        everything they need."""
        arg = "radio" if study == "radio" else str(STUDIES / f"{study}.yaml")
        engine, new = json.loads(_python(_ENGINE_CLOSURE, arg))
        assert new == [], (engine, new)

    def test_service_imports_every_engine_before_its_workers_start(self):
        code = """
import json, sys
from repro.service.queue import JobQueue
engines = ("repro.radio.batch", "repro.solar.batch", "repro.optimize.mc",
           "repro.simulation.batch", "repro.network.optimize")
queue = JobQueue(None, workers=1)
before = [m in sys.modules for m in engines]
queue.start()
print(json.dumps([before, [m in sys.modules for m in engines]]))
queue.drain(grace_s=0.0)
"""
        before, after = json.loads(_python(code))
        assert not any(before) and all(after)

    def test_a_started_service_imports_nothing_inside_a_job(self):
        """After :meth:`JobQueue.start`, the first fresh job of every
        shipped study's engine loads no module at all."""
        code = """
import json, sys, tempfile, time
from pathlib import Path
from repro.service.queue import JobQueue
from repro.service.schemas import JobRequest
import yaml
studies = Path(sys.argv[1])
documents = [yaml.safe_load((studies / f"{name}.yaml").read_text())
             for name in json.loads(sys.argv[2])]
with tempfile.TemporaryDirectory() as store:
    queue = JobQueue(store, workers=1, max_queue=8, max_per_client=8)
    queue.start()
    before = set(sys.modules)
    for document in documents:
        job, _ = queue.submit(JobRequest.from_mapping({"study": document}))
        while queue.get(job.job).state in ("queued", "running"):
            time.sleep(0.005)
        assert queue.get(job.job).state == "done", queue.get(job.job).error
    added = sorted(set(sys.modules) - before)
    queue.drain(5.0)
print(json.dumps(added))
"""
        added = json.loads(_python(code, str(STUDIES),
                                   json.dumps(sorted(STUDY_ENGINE_PACKAGES))))
        assert added == []

    def test_the_mc_study_never_loads_numpy_ma(self):
        result = json.loads(_python(_MODULES_AFTER, json.dumps(
            ["study", "run", str(STUDIES / "robustness_grid.yaml"),
             "--quiet"])))
        assert result["exit"] == 0
        assert "numpy.random" in result["modules"]
        assert "numpy.ma" not in result["modules"]

    def test_every_adapter_names_its_modules(self):
        from repro.study.engines import _ENGINE_MODULES, STUDY_ENGINES

        assert set(_ENGINE_MODULES) == set(STUDY_ENGINES)


class TestPublicSurface:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_every_exported_name_resolves_and_is_listed(self, package):
        module = importlib.import_module(package)
        assert module.__all__, package
        listing = dir(module)
        for name in module.__all__:
            assert getattr(module, name) is not None, name
            assert name in listing, name

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_star_import_binds_every_name(self, package):
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(namespace)

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_unknown_name_raises_attribute_error_naming_the_module(
            self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=repr(package)):
            getattr(module, "no_such_name")

    def test_subpackages_resolve_as_attributes(self):
        """``import repro`` reaches every subpackage and submodule by
        attribute."""
        names = _python(
            "import repro; print(repro.radio.batch.__name__, "
            "repro.optimize.mc.__name__, repro.constants.__name__)")
        assert names == "repro.radio.batch repro.optimize.mc repro.constants"

    def test_names_resolve_to_their_defining_objects(self):
        from repro.radio.batch import evaluate_scenarios
        from repro.scenario.cache import content_token
        from repro.study.runner import run_study

        assert repro.evaluate_scenarios is evaluate_scenarios
        assert repro.scenario.content_token is content_token
        assert importlib.import_module("repro.scenario.spec").content_token \
            is content_token
        assert repro.study.run_study is run_study
        assert repro.constants is importlib.import_module("repro.constants")
        assert repro.__version__ == "1.0.0"
