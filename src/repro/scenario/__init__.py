"""Scenario layer: frozen evaluation specs and profile caching.

* :mod:`repro.scenario.spec` — :class:`Scenario`, one fully specified Eq. (2)
  evaluation with a stable content hash.
* :mod:`repro.scenario.cache` — :func:`content_token`, the canonical
  parameter token every content hash is built from; :class:`ArrayCache`,
  the generic LRU + disk memo machinery; and :class:`ProfileCache`, its
  specialization for evaluated profiles keyed by scenario hash (the off-grid
  weather memo :class:`repro.solar.batch.WeatherCache` builds on the same
  base).

The batch evaluator that consumes these lives in :mod:`repro.radio.batch`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Scenario",
    "ArrayCache",
    "ProfileCache",
    "content_token",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "spec": ("Scenario",),
    "cache": ("ArrayCache", "ProfileCache", "content_token"),
})
