"""Static reachability: every ``src/repro`` module is reached from an entry point.

The entry points are the CLI (:mod:`repro.cli`, :mod:`repro.__main__`), the
HTTP service package (:mod:`repro.service`, its whole public surface) and
the scripts under ``tools/`` and ``examples/``.  The walk reads source only
(``ast``) and imports none of it.  It follows:

* module-level and function-local ``import`` / ``from ... import``
  statements (importing ``a.b.c`` also reaches ``a`` and ``a.b``; the
  package imports by absolute path only),
* the ``lazy_exports`` map of each package front door, so
  ``from repro import X`` reaches the submodule that defines ``X``,
* the literal module names in :data:`repro.study.engines._ENGINE_MODULES`,
  which :func:`repro.study.engines.import_engine` imports by name.

There is one case per module, so a failing run names each module no entry
point reaches.  Such a module is library surface nothing runs: delete it, or
wire it into the workload that needs it.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

#: Entry modules; a package entry exposes every name in its lazy map.
ENTRY_MODULES = ("repro.cli", "repro.__main__", "repro.service")
#: Entry scripts (run as ``python <script>``).
ENTRY_SCRIPTS = (sorted((REPO_ROOT / "tools").glob("*.py"))
                 + sorted((REPO_ROOT / "examples").glob("*.py")))


def _module_files() -> dict[str, Path]:
    """Dotted name → source file for every module under ``src/repro``."""
    files = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        files[".".join(parts)] = path
    return files


MODULES = _module_files()


def _is_package(module: str) -> bool:
    return MODULES[module].name == "__init__.py"


@lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@lru_cache(maxsize=None)
def _lazy_map(package: str) -> dict[str, str]:
    """Public name → defining submodule, from the package's ``lazy_exports``."""
    owners = {}
    for node in ast.walk(_tree(MODULES[package])):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "lazy_exports"):
            for sub, names in ast.literal_eval(node.args[1]).items():
                owners.update({name: f"{package}.{sub}" for name in names})
    return owners


def _with_parents(module: str) -> set[str]:
    parts = module.split(".")
    return {".".join(parts[:i]) for i in range(1, len(parts) + 1)} & set(MODULES)


def _resolve(package: str, name: str) -> set[str]:
    """Modules reached by ``from package import name``."""
    if f"{package}.{name}" in MODULES:
        return _with_parents(f"{package}.{name}")
    owner = _lazy_map(package).get(name) if _is_package(package) else None
    if owner is None:
        return set()
    reached = _with_parents(owner)
    if _is_package(owner):  # re-exported through a nested front door
        reached |= _resolve(owner, name)
    return reached


def _imports(path: Path) -> set[str]:
    """``src/repro`` modules one source file reaches directly."""
    reached: set[str] = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                reached |= _with_parents(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module in MODULES:
            reached |= _with_parents(node.module)
            for alias in node.names:
                reached |= _resolve(node.module, alias.name)
    if path == MODULES["repro.study.engines"]:
        for node in _tree(path).body:
            if (isinstance(node, ast.AnnAssign)
                    and getattr(node.target, "id", None) == "_ENGINE_MODULES"):
                for names in ast.literal_eval(node.value).values():
                    for name in names:
                        reached |= _with_parents(name)
    return reached


@lru_cache(maxsize=None)
def reachable() -> frozenset[str]:
    """Every ``src/repro`` module some entry point reaches."""
    frontier: set[str] = set()
    for entry in ENTRY_MODULES:
        frontier |= _with_parents(entry)
        if _is_package(entry):
            for owner in set(_lazy_map(entry).values()):
                frontier |= _with_parents(owner)
    for script in ENTRY_SCRIPTS:
        frontier |= _imports(script)
    seen: set[str] = set()
    while frontier:
        module = frontier.pop()
        if module not in seen:
            seen.add(module)
            frontier |= _imports(MODULES[module]) - seen
    return frozenset(seen)


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_module_is_reached_from_an_entry_point(module):
    assert module in reachable(), f"no entry point reaches {module}"
