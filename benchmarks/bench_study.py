"""Inline vs. process-pool study execution — the PR-acceptance benchmark.

A 2-axis declarative study (ISD x trains/day through the day-simulation
engine, a fleet of seeded Poisson days per cell) runs twice through
:func:`repro.study.runner.run_study`: inline (``jobs=1``) and sharded across
a process pool (``jobs=4``).

Asserts (a) the merged tidy tables are **bit-identical** — the CRN seeding
contract makes results independent of the shard layout and job count — and
(b) a >= 2x wall-time speedup for the pooled run.  The speedup gate needs
real parallel hardware, so it is enforced only when the machine has >= 4
CPUs and skipped (with the parity assertions still run) on smaller boxes
and shared CI runners.

A third leg measures **supervisor overhead**: the same pooled run with the
full retry/timeout machinery armed (``retries=2``, a generous
``shard_timeout``) but no faults firing must stay within 10% of the plain
pooled wall time — the fault-tolerance layer is free when nothing fails.
The overhead gate rides in the same ``BENCH_study.json`` record (as
``overhead.speedup`` = plain / supervised, threshold 1/1.1).

A journal-emit micro-benchmark rides along in ``overhead.journal``: the
persistent-append-handle :class:`~repro.study.journal.RunJournal` writer
vs. a naive open/write/close per event, over the same record shape.

A store micro-benchmark rides along in ``store``: put plus verified load of
a 2-case ``mc`` shard through :class:`~repro.study.results.StudyStore`'s
bundle layer (one raw bundle file per put) vs. ``np.savez`` plus
``np.load`` of the same packed arrays.  The bundle leg must be at least
``STORE_THRESHOLD`` times faster; like the other timing gates it is
asserted locally and printed under CI.
"""

import json
import os
import time

import numpy as np

from repro.study import RunJournal, StudyStore, parse_study, run_study

JOBS = 4
THRESHOLD = 2.0
#: Max fractional wall-time overhead of the armed (fault-free) supervisor.
OVERHEAD_FRAC = 0.10

STUDY_TEXT = """
name: bench-study
engine: sim
seed: 0
axes:
  isd_m: [1800.0, 2100.0, 2400.0, 2700.0]
  trains_per_day: [76.0, 152.0]
fixed:
  n_repeaters: 8
  headway_s: 450.0
  policy: sleep
  realizations: 250
derived:
  bias_pct: 100 * (mean_w_per_km / analytic_w_per_km - 1)
"""


#: Events per leg of the journal-emit micro-benchmark.
JOURNAL_EVENTS = 2000


def _bench_journal_emit(tmp_dir) -> dict:
    """Persistent-handle vs open/write/close-per-event journal appends.

    The :class:`~repro.study.journal.RunJournal` writer keeps one append
    handle open across a run (one ``write`` + ``flush`` per event); the
    naive alternative reopens the file for every event.  Both legs write
    the same ``finish``-shaped records; the ratio lands in the
    ``overhead.journal`` node of ``BENCH_study.json``.
    """
    fields = {"shard": 3, "start": 0, "stop": 64, "attempt": 1,
              "wall_s": 0.25}

    naive_path = os.path.join(tmp_dir, "naive.jsonl")
    t0 = time.perf_counter()
    for _ in range(JOURNAL_EVENTS):
        record = {"event": "finish", "t": time.time(), **fields}
        with open(naive_path, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    naive_s = time.perf_counter() - t0

    journal = RunJournal(os.path.join(tmp_dir, "run.jsonl"))
    t0 = time.perf_counter()
    for _ in range(JOURNAL_EVENTS):
        journal.emit("finish", **fields)
    persistent_s = time.perf_counter() - t0
    journal.close()

    return {
        "events": JOURNAL_EVENTS,
        "naive_open_close_s": naive_s,
        "persistent_handle_s": persistent_s,
        "speedup": naive_s / persistent_s,
    }


#: Shards per leg of the store micro-benchmark.
STORE_SHARDS = 500
#: Min speedup of bundle put + load over ``np.savez`` + ``np.load``.
STORE_THRESHOLD = 1.5
#: A 2-case ``mc`` shard table: what a service job writes per shard.
STORE_SHARD = {
    "case": [0, 1],
    "outage_probability": [0.02, 0.07],
    "outage_ci95_low": [0.0055, 0.0343],
    "outage_ci95_high": [0.0700, 0.1375],
    "median_min_snr_db": [9.8125, 8.4375],
}


def _bench_store(tmp_dir) -> dict:
    """Bundle put + verified load vs ``np.savez`` + ``np.load`` per shard.

    Both legs write and read the same packed arrays, one file per shard;
    the ratio lands in the ``store`` node of ``BENCH_study.json``.
    """
    store = StudyStore(maxsize=1, cache_dir=os.path.join(tmp_dir, "bundles"))
    # A study bundle is named after its content checksum, so each shard
    # holds its own case numbers.
    shards = [dict(STORE_SHARD, case=[2 * i, 2 * i + 1])
              for i in range(STORE_SHARDS)]
    keys = [store.encode(shard)[1] for shard in shards]
    t0 = time.perf_counter()
    for key, shard in zip(keys, shards):
        store.put_by_hash(key, shard)
    loaded = [store.load_verified(key) for key in keys]
    bundle_s = time.perf_counter() - t0
    assert [value for value, _ in loaded] == shards

    arrays = store._pack(STORE_SHARD)
    npz_dir = os.path.join(tmp_dir, "npz")
    os.makedirs(npz_dir)
    paths = [os.path.join(npz_dir, f"{key}.npz") for key in keys]
    t0 = time.perf_counter()
    for path in paths:
        np.savez(path, **arrays)
    for path in paths:
        with np.load(path) as data:
            unpacked = {name: data[name] for name in data.files}
    npz_s = time.perf_counter() - t0
    assert store._unpack(unpacked) == STORE_SHARD

    return {
        "shards": STORE_SHARDS,
        "bundle_put_load_s": bundle_s,
        "npz_save_load_s": npz_s,
        "bytes_per_bundle": os.path.getsize(store.bundle_path(keys[0])),
        "bytes_per_npz": os.path.getsize(paths[0]),
        "speedup": npz_s / bundle_s,
        "threshold": STORE_THRESHOLD,
        "enforced": not os.environ.get("CI"),
    }


def bench_study_parallel_speedup(benchmark, bench_json, tmp_path):
    spec = parse_study(STUDY_TEXT)
    assert spec.case_count == 8

    t0 = time.perf_counter()
    inline = run_study(spec, jobs=1, shards=8)
    inline_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    pooled = benchmark.pedantic(
        lambda: run_study(spec, jobs=JOBS, shards=8),
        rounds=1, iterations=1)
    pooled_s = time.perf_counter() - t0

    # Shard/job-count invariance (the PR acceptance criterion): the pooled
    # run's merged tidy table is bit-identical to the inline run's.
    assert pooled.table.long() == inline.table.long()
    assert pooled.jobs == JOBS and not pooled.partial

    # Supervisor overhead: same pooled run with retries and a (generous)
    # shard timeout armed, no faults firing.  The supervisor's polling loop
    # and journal writes must not tax the fault-free path.
    t0 = time.perf_counter()
    supervised = run_study(spec, jobs=JOBS, shards=8,
                           retries=2, shard_timeout=600.0)
    supervised_s = time.perf_counter() - t0
    assert supervised.table.long() == inline.table.long()
    assert not supervised.retried and not supervised.failed_shards

    speedup = inline_s / pooled_s
    overhead_speedup = pooled_s / supervised_s
    cpus = os.cpu_count() or 1
    timing_enforced = cpus >= JOBS and not os.environ.get("CI")
    store = _bench_store(tmp_path)
    bench_json("study", {
        "grid": {"cases": spec.case_count, "engine": spec.engine,
                 "realizations": 250, "jobs": JOBS, "shards": 8},
        "inline_s": inline_s,
        "pooled_s": pooled_s,
        "supervised_s": supervised_s,
        "speedup": speedup,
        "cpus": cpus,
        "threshold": THRESHOLD,
        # A <4-CPU box cannot demonstrate a 2x pool speedup at all; the
        # summary tool reports unenforced gates as advisory, not failed.
        "enforced": cpus >= JOBS,
        "overhead": {
            "retries": 2,
            "shard_timeout_s": 600.0,
            "overhead_pct": 100.0 * (supervised_s / pooled_s - 1.0),
            # Gate form: plain/supervised wall-time ratio >= 1/(1+frac)
            # means the armed supervisor stays within OVERHEAD_FRAC.
            "speedup": overhead_speedup,
            "threshold": 1.0 / (1.0 + OVERHEAD_FRAC),
            "enforced": timing_enforced,
            "journal": _bench_journal_emit(tmp_path),
        },
        "store": store,
    })
    # Shared CI runners have noisy neighbours and unstable clocks, so the
    # timing thresholds are advisory there (the parity assertions always
    # hold); likewise a <4-CPU box cannot demonstrate a 2x pool speedup.
    if store["enforced"]:
        assert store["speedup"] >= STORE_THRESHOLD, \
            (f"bundle put + load only {store['speedup']:.1f}x faster than "
             "np.savez + np.load")
    else:
        print(f"store bundle vs npz: {store['speedup']:.1f}x "
              "(threshold not enforced)")
    if not timing_enforced:
        print(f"study pool speedup: {speedup:.1f}x, supervisor overhead "
              f"{100.0 * (supervised_s / pooled_s - 1.0):+.1f}% on {cpus} "
              "CPUs (thresholds not enforced)")
    else:
        assert speedup >= THRESHOLD, \
            f"process-pool study run only {speedup:.1f}x faster"
        assert supervised_s <= pooled_s * (1.0 + OVERHEAD_FRAC), \
            (f"armed supervisor {supervised_s:.2f}s vs plain pooled "
             f"{pooled_s:.2f}s exceeds {OVERHEAD_FRAC:.0%} overhead")
