"""Named sequential-scan kernels.

Each kernel is one of the recurrences the batch engines cannot vectorize
away — the only remaining sequential loops in the codebase:

* :func:`ar1_scan` — the AR(1) linear recurrence (shadowing traces,
  daily-clearness series);
* :func:`ar1_min_scan` — AR(1) shadow recurrence fused with the running
  SNR minimum (the Monte-Carlo engine's inner loop);
* :func:`soc_scan` — the battery state-of-charge clip-recurrence with its
  energy accounting (the solar engine's hourly walk);
* :func:`occupancy_scan` — the occupancy-group wake-cycle walk (the sim
  engine's group scan).

Every run uses the fused formulations of :mod:`repro.kernels.numpy_fused`.
The original step loops are test oracles (``tests/oracles/kernels.py``):
the parity tests substitute them for the fused kernels and
``benchmarks/bench_backend.py`` measures the fused speedup against them.
"""

from __future__ import annotations

from repro.kernels.numpy_fused import (
    ar1_min_scan,
    ar1_scan,
    occupancy_scan,
    soc_scan,
)

__all__ = ["KERNEL_NAMES", "ar1_scan", "ar1_min_scan", "soc_scan",
           "occupancy_scan"]

#: The kernel names, in a fixed order.
KERNEL_NAMES = ("ar1_scan", "ar1_min_scan", "soc_scan", "occupancy_scan")
