"""Scalar oracles: the engines' original one-step-at-a-time implementations.

Every production path in :mod:`repro` runs one batch engine on the fused
kernels.  The slow scalar implementations they replaced live here, outside
the package, as the independent references the parity tests and
``benchmarks/`` compare against:

* :mod:`oracles.kernels` — the step-loop ``ar1_scan``, ``ar1_min_scan`` and
  ``soc_scan`` kernels, substituted for the fused ones by the
  ``reference_kernels`` fixture;
* :mod:`oracles.solar` — the per-system hourly year walk and the
  year-by-year battery-lifetime loop;
* :mod:`oracles.mc` — the shadowing trace samplers and the
  per-(candidate, trial) shadowing walk;
* :mod:`oracles.des` — the discrete-event corridor simulation;
* :mod:`oracles.network` — the per-segment network frontier walk;
* :mod:`oracles.isd` — the full max-ISD scans (deterministic and under
  shadowing) the bisections are pinned to;
* :mod:`oracles.tokens` — the per-object ``content_token`` renderer every
  cache key's token is pinned to.

``tests/`` is on ``sys.path`` for the test suite (pytest's rootdir import
mode) and for ``benchmarks/`` (its ``conftest.py``), so they import these as
``oracles.<module>``.
"""
