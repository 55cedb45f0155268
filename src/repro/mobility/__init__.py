"""Mobility layer: what a terminal on a moving train actually experiences.

The paper's capacity argument is positional (SNR at every track position).
This package converts it into the passenger-facing quantities the
introduction motivates: throughput over time during a traversal, data
volume per segment and time spent at peak rate.
"""

from repro._lazy import lazy_exports

__all__ = ["TraversalResult", "simulate_traversal"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "traversal": ("TraversalResult", "simulate_traversal"),
})
