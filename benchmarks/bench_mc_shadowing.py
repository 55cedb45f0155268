"""Scalar vs. batched Monte-Carlo shadowing — the PR-acceptance speedup benchmark.

The scalar oracle (:func:`oracles.mc.outage_matrix_scalar`) walks the AR(1)
recurrence one (candidate, trial)
pair at a time in Python, drawing one standard normal per position — the
seed robustness loop's shape, though it too now benefits from the hoisted
(memoized) per-step coefficients, so the gate understates the win over the
original seed code.  The batched engine
(:func:`repro.optimize.mc.outage_matrix`) draws one shared standard-normal
matrix and advances a ``[candidate, trial]`` shadow state with position as
the only sequential loop.

Asserts (a) trial-for-trial bit-identical outage counts and min-SNR samples
on a 20-candidate x 500-trial grid and (b) a >= 10x wall-time speedup for
the batched engine.

A second node measures the study adapter the service runs: ``JOBS``
``robustness_grid`` jobs, each with a fresh seed, in process under a
cancel hook on one store.  The ``mc`` adapter makes one
:func:`repro.optimize.mc.min_snr_matrix` call per trial stream; the
baseline swaps in a per-draw loop (:func:`oracles.mc.per_draw_mc`, one
``outage_matrix`` call per (sigma, decorrelation) draw) over the same
cases.  Asserts identical
tables and a ``>= JOBS_THRESHOLD`` speedup of the wall spent inside the
adapter over the jobs (the runner, store and table work around it is the
same code in both legs; whole-job walls are recorded beside it),
asserted locally and printed under CI; the record is
``BENCH_mc_jobs.json``.  This node is a layer measurement: the end-to-end
claim for service jobs rests on perfbench's ``service_jobs`` workload.

A third node gates the draw of a fresh ``(seed, trials)`` stream at a
``robustness_grid`` job's shape: the engine's one-pass seeding
(``repro.optimize.mc._fresh_normals``) against one ``default_rng([seed,
t])`` per trial (:func:`oracles.mc.trial_generators`), bit-identical, at
a ``>= DRAW_THRESHOLD`` thread-CPU speedup (interleaved legs), asserted
locally and printed under CI; the record is ``BENCH_mc_draw.json``.
"""

import dataclasses
import os
import time
from pathlib import Path

import numpy as np

from oracles import kernels as oracle_kernels
from oracles.mc import outage_matrix_scalar, per_draw_mc, trial_generators
from repro.corridor.layout import CorridorLayout
from repro.optimize import mc
from repro.optimize.mc import outage_matrix
from repro.propagation.fading import LogNormalShadowing
from repro.radio.batch import evaluate_scenarios
from repro.scenario.spec import Scenario
from repro.study import RunJournal, StudyStore, load_study, run_study
from repro.study import engines

N_REPEATERS = 8
N_CANDIDATES = 20
TRIALS = 500
RESOLUTION_M = 10.0
SIGMA_DB = 2.0


def _profiles():
    """20 candidate ISDs in 50 m steps around the paper's N=8 maximum."""
    isds = 2000.0 + 50.0 * np.arange(N_CANDIDATES)
    layouts = [CorridorLayout.with_uniform_repeaters(float(isd), N_REPEATERS)
               for isd in isds]
    return evaluate_scenarios(
        [Scenario(layout=lo, resolution_m=RESOLUTION_M) for lo in layouts])


def bench_mc_shadowing_speedup(benchmark, bench_json):
    profiles = _profiles()
    assert len(profiles) == N_CANDIDATES
    shadowing = LogNormalShadowing(sigma_db=SIGMA_DB)

    t0 = time.perf_counter()
    scalar = outage_matrix_scalar(profiles, shadowing, TRIALS, 2022)
    scalar_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    batched = benchmark.pedantic(
        lambda: outage_matrix(profiles, shadowing, trials=TRIALS),
        rounds=1, iterations=1)
    batched_s = time.perf_counter() - t0

    # Bit-identical min-SNR samples and outage counts (the PR acceptance
    # criterion): same per-trial streams, same draw order, same arithmetic.
    # The fused kernel is pinned <= 1e-9 instead — the step-loop kernel
    # is the bit-exact anchor (see benchmarks/bench_backend.py).
    with oracle_kernels.substituted():
        reference = outage_matrix(profiles, shadowing, trials=TRIALS)
    assert np.array_equal(reference.min_snr_db, scalar)
    assert np.array_equal(reference.outage_counts, batched.outage_counts)
    np.testing.assert_allclose(batched.min_snr_db, scalar,
                               rtol=0.0, atol=1e-9)
    # The stretched candidates around the registered maximum are fragile
    # under shadowing, and common random numbers keep the outage curve
    # rising across the ladder (trial noise cancels between candidates).
    outages = batched.outage_probability
    assert outages[-1] > 0.5
    assert outages[0] < outages[-1]

    # ...at a >= 10x wall-time speedup.  Shared CI runners have noisy
    # neighbours and unstable clocks, so the timing threshold is advisory
    # there (the bit-identity assertions above always hold).
    speedup = scalar_s / batched_s
    bench_json("mc", {
        "grid": {"candidates": N_CANDIDATES, "trials": TRIALS,
                 "resolution_m": RESOLUTION_M, "sigma_db": SIGMA_DB},
        "scalar_s": scalar_s,
        "batched_s": batched_s,
        "speedup": speedup,
        "threshold": 10.0,
    })
    if os.environ.get("CI"):
        print(f"batched MC speedup: {speedup:.1f}x (threshold not "
              "enforced under CI)")
    else:
        assert speedup >= 10.0, f"batched MC engine only {speedup:.1f}x faster"


#: Service-style jobs per leg of the adapter node.
JOBS = 30
#: Min speedup of the per-stream adapter over the per-draw loop.
JOBS_THRESHOLD = 1.2
#: Alternating rounds per leg; each leg's best round is compared.
ROUNDS = 5
STUDY = Path(__file__).resolve().parents[1] / "studies" / "robustness_grid.yaml"


def _service_jobs(store_dir, runner) -> tuple[float, float, list]:
    """``JOBS`` fresh-seed jobs on one store with ``runner`` as the ``mc``
    adapter: total job wall, CPU time inside the adapter (process time:
    a shared host's stolen time does not count), long tables."""
    adapter = engines.STUDY_ENGINES["mc"]
    inside = [0.0]

    def timed(cases, seeds, context):
        t0 = time.process_time()
        try:
            return runner(cases, seeds, context)
        finally:
            inside[0] += time.process_time() - t0

    spec = load_study(STUDY)
    store = StudyStore(maxsize=64, cache_dir=store_dir)
    tables = []
    engines.STUDY_ENGINES["mc"] = dataclasses.replace(adapter, runner=timed)
    try:
        t0 = time.perf_counter()
        for job in range(JOBS):
            report = run_study(dataclasses.replace(spec, seed=job),
                               store=store, journal=RunJournal(None),
                               cancel=lambda: False)
            tables.append(report.table.long())
        wall = time.perf_counter() - t0
    finally:
        engines.STUDY_ENGINES["mc"] = adapter
    return wall, inside[0], tables


def bench_mc_service_jobs(benchmark, bench_json, tmp_path):
    per_stream = engines.STUDY_ENGINES["mc"].runner
    _service_jobs(tmp_path / "warm", per_stream)   # imports, profile cache

    def compare():
        # Best of alternating rounds, each on a fresh store: the
        # shared-host noise of one round is as large as the gap gated.
        legs = {"per_draw": [], "per_stream": []}
        for round_ in range(ROUNDS):
            *walls, oracle = _service_jobs(tmp_path / f"draw-{round_}",
                                           per_draw_mc)
            legs["per_draw"].append(walls)
            *walls, tables = _service_jobs(tmp_path / f"stream-{round_}",
                                           per_stream)
            legs["per_stream"].append(walls)
            assert tables == oracle
        return {leg: [min(column) for column in zip(*rounds)]
                for leg, rounds in legs.items()}

    best = benchmark.pedantic(compare, rounds=1, iterations=1)
    speedup = best["per_draw"][1] / best["per_stream"][1]
    bench_json("mc_jobs", {
        "jobs": JOBS,
        "study": STUDY.name,
        "per_draw_job_s": best["per_draw"][0],
        "per_stream_job_s": best["per_stream"][0],
        "per_draw_adapter_s": best["per_draw"][1],
        "per_stream_adapter_s": best["per_stream"][1],
        "job_speedup": best["per_draw"][0] / best["per_stream"][0],
        "speedup": speedup,
        "threshold": JOBS_THRESHOLD,
        "enforced": not os.environ.get("CI"),
    })
    if os.environ.get("CI"):
        print(f"mc adapter speedup over service jobs: {speedup:.2f}x "
              "(threshold not enforced under CI)")
    else:
        assert speedup >= JOBS_THRESHOLD, \
            f"per-stream mc adapter only {speedup:.2f}x faster"


#: Min speedup of the one-pass trial seeding over a generator per trial.
DRAW_THRESHOLD = 1.5
#: A ``robustness_grid`` job's fresh stream: trials x longest grid.
DRAW_TRIALS, DRAW_WIDTH = 100, 239
DRAW_SEED = 2022


def bench_mc_draw(benchmark, bench_json, interleaved_best):
    def oracle():
        return np.array([rng.standard_normal(DRAW_WIDTH)
                         for rng in trial_generators(DRAW_SEED, DRAW_TRIALS)])

    def fresh():
        return mc._fresh_normals(DRAW_SEED, DRAW_TRIALS, DRAW_WIDTH)

    benchmark.pedantic(fresh, rounds=1, iterations=1)
    (oracle_s, reference), (fresh_s, drawn) = interleaved_best(
        oracle, fresh, repeats=30)
    assert np.array_equal(drawn, reference)

    speedup = oracle_s / fresh_s
    bench_json("mc_draw", {
        "trials": DRAW_TRIALS,
        "width": DRAW_WIDTH,
        "oracle_s": oracle_s,
        "fresh_s": fresh_s,
        "speedup": speedup,
        "threshold": DRAW_THRESHOLD,
        "enforced": not os.environ.get("CI"),
    })
    if os.environ.get("CI"):
        print(f"one-pass trial seeding speedup: {speedup:.2f}x (threshold "
              "not enforced under CI)")
    else:
        assert speedup >= DRAW_THRESHOLD, \
            f"one-pass trial seeding only {speedup:.2f}x faster"
