"""Pluggable array-backend registry for the sequential-scan kernels.

The four batch engines are vectorized over every axis except time/position,
where a sequential recurrence remains (the AR(1) shadowing scan, the battery
state-of-charge clip-recurrence, the occupancy group walk).  Those
recurrences are implemented as *named kernels* (:mod:`repro.kernels`) that
are registered per backend, and this module is the registry:

* ``"numpy"`` — the default: fused pure-numpy formulations (blocked
  rescaled prefix scans, hoisted accumulations) pinned to ``<= 1e-9``
  against the reference in the shared parity matrix;
* ``"reference"`` — the original step-loop formulations, bit-identical to
  the scalar escape hatches (``engine="scalar"`` / ``engine="event"``);
  this is the audit path and the honest baseline of
  ``benchmarks/bench_backend.py``.

Selection is per call: every engine entry point takes a ``backend=``
keyword, ``None`` falls back to the ``REPRO_BACKEND`` environment variable,
and an unset environment falls back to ``"numpy"``.  Resolution happens at
call time, so one process can mix backends and tests can monkeypatch the
environment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.errors import ConfigurationError

__all__ = [
    "BACKEND_ENV_VAR",
    "DEFAULT_BACKEND",
    "Backend",
    "get_backend",
    "register_backend",
    "registered_backends",
    "resolve_backend_name",
]

#: Environment variable consulted when no explicit ``backend=`` is passed.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Backend used when neither a ``backend=`` argument nor the environment
#: selects one.
DEFAULT_BACKEND = "numpy"


@dataclass(frozen=True)
class Backend:
    """One registered kernel backend.

    Attributes
    ----------
    name:
        Registry id, the value of ``backend=`` kwargs and ``REPRO_BACKEND``.
    description:
        One-liner shown in error messages and the docs.
    kernels:
        Mapping of kernel name (see :data:`repro.kernels.KERNEL_NAMES`) to
        its implementation.
    """

    name: str
    description: str
    kernels: Mapping[str, Callable]


_REGISTRY: dict[str, Backend] = {}


def register_backend(backend: Backend) -> None:
    """Register a backend under its name.

    Args:
        backend: The backend record; its ``name`` must be unused.

    Raises:
        ConfigurationError: When the name is already registered.
    """
    if backend.name in _REGISTRY:
        raise ConfigurationError(
            f"backend {backend.name!r} is already registered")
    _REGISTRY[backend.name] = backend


def _ensure_registered() -> None:
    """Trigger kernel registration (kernels register on first import)."""
    if not _REGISTRY:
        import repro.kernels  # noqa: F401  (registers the backends)


def registered_backends() -> tuple[str, ...]:
    """All registered backend names, in registration order.

    Returns:
        The names — the axis the kernel and engine parity tests iterate
        over.
    """
    _ensure_registered()
    return tuple(_REGISTRY)


def resolve_backend_name(name: str | None = None) -> str:
    """Resolve an explicit/implicit backend selection to a registered name.

    Resolution order: the explicit ``name`` argument, then the
    ``REPRO_BACKEND`` environment variable, then :data:`DEFAULT_BACKEND`.

    Args:
        name: Explicit selection, or ``None``/empty to consult the
            environment.

    Returns:
        The resolved registered name.

    Raises:
        ConfigurationError: When the resolved name is not registered.
    """
    _ensure_registered()
    resolved = name or os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    if resolved not in _REGISTRY:
        raise ConfigurationError(
            f"unknown backend {resolved!r}; registered: "
            f"{list(_REGISTRY)} (selected via backend= or "
            f"the {BACKEND_ENV_VAR} environment variable)")
    return resolved


def get_backend(name: str | None = None) -> Backend:
    """The resolved backend for a kernel call.

    Args:
        name: Explicit selection; ``None`` falls back to ``REPRO_BACKEND``
            and then :data:`DEFAULT_BACKEND`.

    Returns:
        The :class:`Backend` whose kernels should serve the call.

    Raises:
        ConfigurationError: For an unknown name.
    """
    return _REGISTRY[resolve_backend_name(name)]
