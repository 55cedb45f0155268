"""Lazy package front doors (PEP 562 module ``__getattr__``/``__dir__``).

Every ``repro`` package ``__init__`` keeps an explicit ``__all__`` and maps
each public name to the submodule that defines it; the submodule is imported
the first time the name is looked up.  Importing a package therefore costs
nothing until one of its names is used, so a CLI process loads only the
modules its subcommand and engine actually need.  Modules inside the package
import each other by submodule path (``from repro.radio.link import ...``),
never through a front door.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: Mapping[str, tuple[str, ...]]
                 ) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """Build a package's ``__getattr__`` and ``__dir__``.

    Args:
        package: The package's ``__name__``.
        exports: Submodule name (relative to ``package``, dotted for deeper
            modules) → the public names it defines.

    Returns:
        ``(__getattr__, __dir__)`` to bind at package level.  A mapped name
        resolves to the submodule's attribute; any other public name that
        is a submodule of ``package`` resolves to that submodule.  A
        resolved name is stored on the package, so each lookup imports at
        most once.
    """
    owners = {name: sub for sub, names in exports.items() for name in names}

    def __getattr__(name: str):
        sub = owners.get(name)
        if sub is not None:
            value = getattr(importlib.import_module(f"{package}.{sub}"), name)
        else:
            missing = AttributeError(
                f"module {package!r} has no attribute {name!r}")
            if name.startswith("_"):
                raise missing
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
                raise missing from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        namespace = vars(sys.modules[package])
        return sorted(set(namespace) | set(namespace.get("__all__", ())))

    return __getattr__, __dir__
