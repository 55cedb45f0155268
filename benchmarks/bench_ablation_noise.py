"""Ablation — repeater-noise model comparison on the max-ISD sweep.

Quantifies Modelling decisions §4.1 (docs/reproducing.md): the literal
Eq. (2) noise term overshoots the paper's registered list at high repeater
counts, while the calibrated amplify-and-forward fronthaul model reproduces
the diminishing-returns tail.
"""

from repro import constants
from repro.experiments.ablations import run_noise_ablation


def bench_noise_models(benchmark):
    result = benchmark.pedantic(
        lambda: run_noise_ablation(resolution_m=8.0), rounds=1, iterations=1)

    paper = list(constants.PAPER_MAX_ISD_M)
    literal = result.lists["paper"]
    star = result.lists["fronthaul_star"]

    # Fronthaul noise bites at N = 10: smaller ISD than the literal model.
    assert star[9] < literal[9]
    # Fronthaul tail is closer to the paper's registered tail.
    literal_tail_err = sum(abs(a - b) for a, b in zip(literal[7:], paper[7:]))
    star_tail_err = sum(abs(a - b) for a, b in zip(star[7:], paper[7:]))
    assert star_tail_err < literal_tail_err
    # All three variants stay monotone non-decreasing.
    for name, lst in result.lists.items():
        assert all(b >= a for a, b in zip(lst, lst[1:])), name
