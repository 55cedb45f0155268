"""End-to-end and per-layer benchmark of the railway-corridor reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload engine_grids --seed 0 --seconds 28 \\
        --trace 0

``--trace 0`` times the workload through the real user surfaces -- fresh
``python -m repro`` processes and a ``repro serve`` child over HTTP -- and
prints every end-to-end metric at the reference host speed: each wall is
scaled by the host-speed probe taken next to it (``scaled``), and the
metrics as measured follow as ``# raw`` lines.  ``--trace 1`` prints every per-layer
metric instead: one untimed pass of the real workload (journals, process
walls, HTTP job timestamps), plus an in-process replay of each part in a
fresh process, once plain and once traced.  Both modes check the outputs;
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

WORKLOADS = ("network_national", "engine_grids", "wide_sweep_dist",
             "service_jobs")

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "critical_path_s": "s",
    "job_latency_p50_s": "s",
    "job_latency_p90_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_KERNELS = ("ar1_scan", "ar1_min_scan", "soc_scan", "occupancy_scan")

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "failed_frac": "ratio",
    "startup.import_s": "s",
    "startup.import_experiments_s": "s",
    "startup.repro_modules": "count",
    "spec.load_s": "s",
    "spec.cases_calls": "count",
    "spec.cases_s": "s",
    "spec.compute_hash_calls": "count",
    "spec.compute_hash_s": "s",
    "engines.run_cases_s": "s",
    "engines.resolve_s": "s",
    "runner.self_s": "s",
    "runner.shards": "count",
    "runner.retries": "count",
    "runner.worker_utilization": "ratio",
    "scenario.content_hash_calls": "count",
    "scenario.content_hash_s": "s",
    "scenario.profile_cache_hit_ratio": "ratio",
    "radio.evaluate_scenarios_s": "s",
    "solar.simulate_systems_s": "s",
    "mc.outage_matrix_s": "s",
    "simulation.simulate_days_s": "s",
    "network.build_graph_s": "s",
    "network.segment_frontiers_calls": "count",
    "network.segment_frontiers_s": "s",
    "network.optimize_network_calls": "count",
    "network.optimize_network_s": "s",
    "network.report_s": "s",
    **{f"kernels.{k}_{suffix}": unit for k in _KERNELS
       for suffix, unit in (("calls", "count"), ("s", "s"))},
    "kernels.bytes_computed": "bytes",
    "store.put_calls": "count",
    "store.put_s": "s",
    "store.get_s": "s",
    "store.bytes_written": "bytes",
    "store.quarantined": "count",
    "table.merge_shards_s": "s",
    "table.build_s": "s",
    "table.write_csv_s": "s",
    "table.csv_bytes": "bytes",
    "table.to_document_s": "s",
    "journal.events": "count",
    "journal.emit_s": "s",
    "dist.self_s": "s",
    "dist.worker_wall_max_s": "s",
    "dist.worker_skew": "ratio",
    "dist.merge_s": "s",
    "dist.crn_check_s": "s",
    "manifest.build_s": "s",
    "manifest.verify_s": "s",
    "service.edge_s": "s",
    "service.submit_rtt_s": "s",
    "service.queue_wait_s": "s",
    "service.run_s": "s",
    "service.result_fetch_s": "s",
    "service.result_bytes": "bytes",
    "service.dedup_hits": "count",
    "service.dedup_hit_s": "s",
    "service.rejected": "count",
    "service.jobstore_events": "count",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}

#: Replayed parts per workload, each in a fresh process (one per CLI
#: process of the real workload).
PARTS = {
    "network_national": ("study_run:national_network", "optimize"),
    "engine_grids": tuple(f"study_run:{n}" for n in wl.ENGINE_GRID_STUDIES),
    "wide_sweep_dist": tuple(f"shard:{k}" for k in range(wl.WIDE_WORKERS))
    + ("merge",),
    "service_jobs": ("service",),
}

#: Span name of each self-time metric (sums the span's self time).
SELF_TIME = {
    "spec.load_s": "spec.load",
    "spec.cases_s": "spec.cases",
    "spec.compute_hash_s": "spec.compute_hash",
    "engines.run_cases_s": "engines.run_cases",
    "engines.resolve_s": "engines.resolve",
    "runner.self_s": "runner.run_study",
    "scenario.content_hash_s": "scenario.content_hash",
    "radio.evaluate_scenarios_s": "radio.evaluate_scenarios",
    "solar.simulate_systems_s": "solar.simulate_systems",
    "mc.outage_matrix_s": "mc.outage_matrix",
    "simulation.simulate_days_s": "simulation.simulate_days",
    "network.build_graph_s": "network.build_graph",
    "network.segment_frontiers_s": "network.segment_frontiers",
    "network.optimize_network_s": "network.optimize_network",
    "network.report_s": "network.report",
    **{f"kernels.{k}_s": f"kernels.{k}" for k in _KERNELS},
    "store.put_s": "store.put",
    "store.get_s": "store.get",
    "table.merge_shards_s": "table.merge_shards",
    "table.build_s": "table.build",
    "table.write_csv_s": "table.write_csv",
    "table.to_document_s": "table.to_document",
    "journal.emit_s": "journal.emit",
    "dist.crn_check_s": "dist.crn_check",
    "manifest.build_s": "manifest.build",
    "manifest.verify_s": "manifest.verify",
    "service.edge_s": "service.edge",
}

#: Span name of each call-count metric.
CALLS = {
    "spec.cases_calls": "spec.cases",
    "spec.compute_hash_calls": "spec.compute_hash",
    "scenario.content_hash_calls": "scenario.content_hash",
    "network.segment_frontiers_calls": "network.segment_frontiers",
    "network.optimize_network_calls": "network.optimize_network",
    **{f"kernels.{k}_calls": f"kernels.{k}" for k in _KERNELS},
    "store.put_calls": "store.put",
    "journal.events": "journal.emit",
}

#: Spans whose self time is reported in a metric other than their own
#: name: (span, layer metric it is reported in).
EXTRA_SELF = {"dist.slice": "dist.self_s", "dist.merge": "dist.self_s",
              "service.submit": "service.edge_s",
              "service.result": "service.edge_s",
              "service.jobstore": "service.edge_s"}

#: Spans whose self time some per-layer metric reports; ``trace.coverage``
#: is the share of the traced wall during which a thread runs one of them.
COVERED_SPANS = frozenset(SELF_TIME.values()) | set(EXTRA_SELF) \
    | {"dist.crn_check"}

#: Set-up probes per run (median reported): fresh CLI starts spread over
#: the run, or server spawns (one per service iteration, topped up with
#: spawns that run no jobs).
SETUP_REPEATS = 7
SERVICE_SETUP_REPEATS = 7
#: Service iterations per run at least (>= SERVICE_MIN_FRESH fresh jobs).
SERVICE_MIN_ITERATIONS = math.ceil(wl.SERVICE_MIN_FRESH
                                   / wl.SERVICE_ITERATION_FRESH)
#: Repeats of the ``-X importtime`` probe in the traced run.
IMPORTTIME_REPEATS = 3


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# -- timed mode (--trace 0) -----------------------------------------------------


def scaled(wall: float, factor: float) -> float:
    """``wall`` at the reference host speed, given the host-speed factor of
    the probe taken next to it (``workloads.host_factors``).

    The shared host's speed drifts by up to 1.5x within minutes, and the
    program's walls drift with it.  The probe never runs the program, so
    ``wall * factor`` moves only with the program."""
    return wall * factor


def as_measured(wall: float, factor: float) -> float:
    return wall


def cli_metrics(iterations: list, setups: list, peak_rss_mb: float,
                speed=scaled) -> dict:
    """End-to-end metrics from ``(Iteration, factor)`` and ``(set-up wall,
    factor)`` pairs; ``speed(wall, factor)`` is the wall reported."""
    # Job latency quantiles over the workload's job mix, each job taken
    # as the median wall of its kind over the run's iterations.
    kinds: dict = {}
    for it, factor in iterations:
        for proc in it.procs:
            kinds.setdefault(proc.label, []).append(speed(proc.wall_s,
                                                          factor))
    mix = [median(walls) for walls in kinds.values()]
    walls = [speed(it.wall_s, factor) for it, factor in iterations]
    return {
        "setup_s": median([speed(w, factor) for w, factor in setups]),
        "wall_s": median(walls),
        "critical_path_s": median([speed(it.critical_path_s, factor)
                                   for it, factor in iterations]),
        "job_latency_p50_s": wl.percentile(mix, 0.5),
        "job_latency_p90_s": wl.percentile(mix, 0.9),
        "jobs_per_s": median([len(it.procs) / wall for (it, _), wall
                              in zip(iterations, walls)]),
        "peak_rss_mb": peak_rss_mb,
    }


def timed_cli(root: Path, work: Path, workload: str, seed: int,
              seconds: float, checks: wl.Checks,
              refresh: bool) -> tuple[dict, dict, list]:
    """End-to-end metrics at the reference host speed, the same metrics
    as measured, and the host-speed factors.  Every iteration and every
    set-up probe is followed by a host-speed probe as wide as itself."""
    inputs = work / "inputs"
    wl.prepare_inputs(root, workload, seed, inputs)
    run = wl.CLI_WORKLOADS[workload]
    setups, iterations, rss = [], [], []

    def setup_pairs(repeats: int) -> None:
        for wall, peak in wl.cli_setup_s(root, work, checks, repeats):
            setups.append((wall, wl.host_factors(work, 1)[0]))
            rss.append(peak)

    t0 = time.perf_counter()
    while not iterations or time.perf_counter() - t0 < seconds:
        it_dir = work / f"it{len(iterations)}"
        it_dir.mkdir()
        it = run(root, it_dir, inputs, seed, checks,
                 refresh and not iterations)
        iterations.append(
            (it, wl.host_factors(work, 1, wl.CLI_WIDTH[workload])[0]))
        rss += [p.max_rss_mb for p in it.procs]
        shutil.rmtree(it_dir, ignore_errors=True)
        # Set-up probes keep pace with the run's clock, so they sample the
        # same stretch of machine time as the workload.
        due = math.ceil(SETUP_REPEATS * (time.perf_counter() - t0) / seconds)
        setup_pairs(min(SETUP_REPEATS, due) - len(setups))
    setup_pairs(SETUP_REPEATS - len(setups))
    return (cli_metrics(iterations, setups, max(rss)),
            cli_metrics(iterations, setups, max(rss), speed=as_measured),
            [factor for _, factor in iterations + setups])


def spawn_server(root: Path, work: Path, name: str,
                 checks: wl.Checks) -> wl.Server:
    """A ``repro serve`` child on the fresh store ``store-<name>``, ready."""
    server = wl.Server(root, work / f"store-{name}",
                       work / f"serve-{name}.err")
    checks.op(server.ready_s is not None)
    if server.ready_s is None:
        server.stop()
        raise SystemExit("perfbench: repro serve never became ready")
    return server


def serve_jobs(root: Path, work: Path, name: str, seed: int,
               checks: wl.Checks, min_fresh: int, probe=None):
    """Spawn a server, run the clients until ``min_fresh`` fresh jobs are
    done (``probe`` runs after every round), stop the server.  Returns the
    clients, the server's set-up time and its max RSS [MB]."""
    server = spawn_server(root, work, name, checks)
    clients = wl.ServiceClients(
        server.port, wl.service_document(root, seed), seed, checks,
        min_fresh, probe)
    try:
        clients.run()
    finally:
        code, peak = server.stop()
    checks.op(code == 0)
    return clients, server.ready_s, peak


def service_metrics(iterations: list, setups: list, peak_rss_mb: float,
                    speed=scaled) -> dict:
    """End-to-end metrics from the iterations' clients and ``(set-up wall,
    factor)`` pairs; a job's timings and its round's wall are scaled by the
    round's own factor."""
    latencies, walls, fresh, done = [], [], [], []
    for clients in iterations:
        ok = [s for s in clients.submissions if s.status == 200]
        latencies += [speed(s.latency_s, clients.rounds[s.round][1])
                      for s in ok if s.fresh]
        walls.append(sum(speed(w, f) for w, f in clients.rounds))
        fresh.append(sum(1 for s in ok if s.fresh))
        done.append(len(ok))
    # Client wall of a batch of SERVICE_MIN_FRESH fresh jobs.
    batch_s = median([wall * wl.SERVICE_MIN_FRESH / max(1, n)
                      for wall, n in zip(walls, fresh)])
    return {
        "setup_s": median([speed(w, f) for w, f in setups]),
        "wall_s": batch_s,
        "critical_path_s": batch_s,
        "job_latency_p50_s": wl.percentile(latencies, 0.5),
        "job_latency_p90_s": wl.percentile(latencies, 0.9),
        "jobs_per_s": median([n / wall for n, wall in zip(done, walls)]),
        "peak_rss_mb": peak_rss_mb,
    }


def timed_service(root: Path, work: Path, seed: int, seconds: float,
                  checks: wl.Checks,
                  refresh: bool) -> tuple[dict, dict, list]:
    """End-to-end metrics at the reference host speed, the same metrics
    as measured, and the host-speed factors.  Each iteration spawns a
    server on a fresh store after a host-speed probe, which scales its
    set-up time, and runs SERVICE_ITERATION_FRESH fresh jobs in client
    rounds, each round followed by a probe."""

    def probe() -> float:
        return wl.host_factors(work, 1)[0]

    iterations, setups, rss = [], [], []
    t0 = time.perf_counter()
    while (len(iterations) < SERVICE_MIN_ITERATIONS
           or time.perf_counter() - t0 < seconds):
        name = f"it{len(iterations)}"
        factor = wl.host_factors(work, 1)[0]
        clients, ready, peak = serve_jobs(root, work, name, seed, checks,
                                          wl.SERVICE_ITERATION_FRESH, probe)
        if not iterations:
            wl.check_service_reference(checks, clients, seed, refresh)
        shutil.rmtree(work / f"store-{name}", ignore_errors=True)
        iterations.append(clients)
        setups.append((ready, factor))
        rss.append(peak)
    # Set-up only spawns, up to SERVICE_SETUP_REPEATS samples.
    while len(setups) < SERVICE_SETUP_REPEATS:
        factor = wl.host_factors(work, 1)[0]
        server = spawn_server(root, work, f"setup{len(setups)}", checks)
        setups.append((server.ready_s, factor))
        code, peak = server.stop()
        checks.op(code == 0)
        rss.append(peak)
    factors = [f for _, f in setups] + [f for clients in iterations
                                        for _, f in clients.rounds]
    return (service_metrics(iterations, setups, max(rss)),
            service_metrics(iterations, setups, max(rss), speed=as_measured),
            factors)


# -- traced mode (--trace 1) ----------------------------------------------------


def importtime(root: Path) -> dict:
    """``python -X importtime -c "import repro.cli"``, median of repeats."""
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            cwd=root, env=wl.program_env(root), capture_output=True,
            text=True, timeout=wl.PROC_TIMEOUT_S, check=True)
        cumulative, modules = {}, 0
        for line in proc.stderr.splitlines():
            match = re.match(r"import time:\s*(\d+) \|\s*(\d+) \|(\s*)(\S+)",
                             line)
            if match is None:
                continue
            name = match.group(4)
            if name == "repro" or name.startswith("repro."):
                modules += 1
                cumulative[name] = int(match.group(2)) / 1e6
        runs.append((cumulative.get("repro.cli", 0.0),
                     cumulative.get("repro.experiments", 0.0), modules))
    return {
        "startup.import_s": median([r[0] for r in runs]),
        "startup.import_experiments_s": median([r[1] for r in runs]),
        "startup.repro_modules": median([r[2] for r in runs]),
    }


def journal_metrics(paths) -> dict:
    """Runner metrics from ``run.jsonl`` journals: computed shards, retries
    and worker utilization (sum of finish walls over jobs x run wall)."""
    shards = retries = 0
    busy = capacity = 0.0
    for path in paths:
        jobs = 1
        for line in Path(path).read_text().splitlines():
            event = json.loads(line)
            kind = event.get("event")
            if kind == "run_start":
                jobs = int(event.get("jobs", 1))
            elif kind == "finish":
                shards += 1
                busy += float(event["wall_s"])
            elif kind == "retry":
                retries += 1
            elif kind == "run_end":
                capacity += jobs * float(event["wall_s"])
    return {"runner.shards": shards, "runner.retries": retries,
            "runner.worker_utilization": busy / capacity if capacity else 0.0}


def real_pass(root: Path, work: Path, workload: str, seed: int,
              checks: wl.Checks) -> dict:
    """One untimed pass of the real workload for journal/HTTP metrics."""
    work.mkdir(parents=True)
    metrics: dict = {}
    if workload == "service_jobs":
        clients, _, _ = serve_jobs(root, work, "0", seed, checks,
                                   wl.SERVICE_MIN_FRESH)
        wl.check_service_reference(checks, clients, seed, False)
        store = work / "store-0"
        metrics.update(journal_metrics(sorted(store.glob("runs/*.jsonl"))))
        subs = [s for s in clients.submissions if s.status == 200]
        fresh = [s for s in subs if s.fresh]
        repeats = [s for s in subs if not s.created]
        metrics.update({
            "service.submit_rtt_s": median([s.submit_rtt_s for s in subs]),
            "service.queue_wait_s": median(
                [s.view["started_t"] - s.view["submitted_t"] for s in fresh]),
            "service.run_s": median(
                [s.view["finished_t"] - s.view["started_t"] for s in fresh]),
            "service.result_fetch_s": median([s.fetch_rtt_s for s in subs]),
            "service.result_bytes": median([s.result_bytes for s in fresh]),
            "service.dedup_hits": len(repeats),
            "service.dedup_hit_s": median([s.latency_s for s in repeats]),
            "service.rejected": clients.rejected,
            "service.jobstore_events": len(
                (store / "jobs.jsonl").read_text().splitlines()),
        })
        return metrics
    inputs = work / "inputs"
    wl.prepare_inputs(root, workload, seed, inputs)
    iteration = wl.CLI_WORKLOADS[workload](root, work, inputs, seed, checks)
    metrics.update(journal_metrics(sorted(work.rglob("run.jsonl"))))
    if workload == "wide_sweep_dist":
        workers = [p.wall_s for p in iteration.procs[:-1]]
        metrics.update({"dist.worker_wall_max_s": max(workers),
                        "dist.worker_skew": max(workers) / min(workers),
                        "dist.merge_s": iteration.procs[-1].wall_s})
    return metrics


def replay(root: Path, workload: str, seed: int, work: Path,
           checks: wl.Checks) -> tuple[dict, list]:
    """Plain and traced replay of every part, each in a fresh process."""
    inputs = work / "inputs"
    wl.prepare_inputs(root, workload, seed, inputs)
    parts = []
    for part in PARTS[workload]:
        result = {}
        for mode in ("plain", "traced"):
            proc = subprocess.run(
                [sys.executable, str(HERE / "replay.py"), "--part", part,
                 "--inputs", str(inputs), "--work", str(work / mode),
                 "--seed", str(seed), "--mode", mode],
                cwd=root, capture_output=True, text=True,
                timeout=wl.PROC_TIMEOUT_S)
            if not checks.op(proc.returncode == 0):
                print(f"perfbench: replay {part} ({mode}) failed:\n"
                      f"{proc.stderr[-1500:]}", file=sys.stderr)
                raise SystemExit(1)
            result[mode] = json.loads(proc.stdout.strip().splitlines()[-1])
        parts.append(result)
    return aggregate(parts), parts


def aggregate(parts: list) -> dict:
    """Per-layer metrics summed over the traced parts."""
    layers: dict = {}
    counters: dict = {}
    for part in parts:
        for name, (calls, total, self_s) in part["traced"]["layers"].items():
            acc = layers.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for name, value in part["traced"]["counters"].items():
            counters[name] = counters.get(name, 0.0) + value
    metrics = {name: layers.get(span, [0, 0.0, 0.0])[2]
               for name, span in SELF_TIME.items()}
    # The CRN spot-check is reported inclusive of its recomputation.
    metrics["dist.crn_check_s"] = layers.get("dist.crn_check",
                                             [0, 0.0, 0.0])[1]
    for span, metric in EXTRA_SELF.items():
        metrics[metric] = metrics.get(metric, 0.0) + layers.get(
            span, [0, 0.0, 0.0])[2]
    metrics.update({name: layers.get(span, [0, 0.0, 0.0])[0]
                    for name, span in CALLS.items()})
    lookups = counters.get("scenario.profile_lookups", 0.0)
    metrics["scenario.profile_cache_hit_ratio"] = (
        counters.get("scenario.profile_hits", 0.0) / lookups
        if lookups else 0.0)
    for name in ("kernels.bytes_computed", "store.bytes_written",
                 "store.quarantined", "table.csv_bytes"):
        metrics[name] = counters.get(name, 0.0)
    untraced = sum(p["plain"]["wall_s"] for p in parts)
    traced = sum(p["traced"]["wall_s"] for p in parts)
    covered = sum(p["traced"]["covered_s"] for p in parts)
    metrics.update({
        "trace.untraced_wall_s": untraced,
        "trace.traced_wall_s": traced,
        "trace.overhead_s": traced - untraced,
        "trace.coverage": covered / traced if traced else 0.0,
    })
    return metrics


def layer_table(parts: list) -> list[str]:
    """Human-readable self-time shares per replayed part (hot spots)."""
    lines = []
    for part in parts:
        traced = part["traced"]
        wall = traced["wall_s"]
        lines.append(f"# part {traced['part']}: traced wall {wall:.4f} s, "
                     f"untraced {part['plain']['wall_s']:.4f} s, coverage "
                     f"{traced['covered_s'] / wall:.1%}")
        ranked = sorted(traced["layers"].items(), key=lambda kv: -kv[1][2])
        for name, (calls, _, self_s) in ranked[:8]:
            lines.append(f"#   {name:<28} {self_s / wall:6.1%}  "
                         f"{self_s:.4f} s self  {calls} calls")
    return lines


def traced(root: Path, work: Path, workload: str, seed: int,
           checks: wl.Checks) -> tuple[dict, list]:
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(importtime(root))
    metrics.update(real_pass(root, work / "real", workload, seed, checks))
    layer_metrics, parts = replay(root, workload, seed, work / "replay",
                                  checks)
    metrics.update(layer_metrics)
    return metrics, parts


# -- output -----------------------------------------------------------------------


def result_line(metrics: dict, units: dict, checks: wl.Checks) -> str:
    """The final JSON line; ``metrics`` must name exactly ``units``."""
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metric set mismatch: "
                         f"{sorted(set(metrics) ^ set(units))}")
    return json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    })


def report_lines(metrics: dict, units: dict, checks: wl.Checks) -> list[str]:
    lines = [f"{name:<36} {metrics[name]:.6g} {units[name]}"
             for name in units]
    summary: dict = {}
    for name, ok, detail in checks.verdicts:
        passed, total, last = summary.get(name, (0, 0, ""))
        summary[name] = (passed + ok, total + 1, detail if not ok else last)
    for name, (passed, total, detail) in sorted(summary.items()):
        verdict = "ok" if passed == total else "FAIL"
        lines.append(f"check {name:<34} {verdict} ({passed}/{total})"
                     + (f" {detail}" if detail else ""))
    lines.append(f"checks: {checks.attempted - checks.failed}/"
                 f"{checks.attempted} operations and output checks passed")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=wl.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--refresh-reference", action="store_true",
                        help="rewrite reference/ from this run (seed 0)")
    args = parser.parse_args(argv)
    root = wl.checkout_root()
    wl.require_program(root)
    if args.refresh_reference and args.seed != wl.REFERENCE_SEED:
        raise SystemExit("perfbench: references are kept for seed "
                         f"{wl.REFERENCE_SEED} only")
    work = root / ".bench_work" / f"{args.workload}-{time.time_ns()}"
    work.mkdir(parents=True)
    checks = wl.Checks()
    if args.workload in wl.ONE_CPU_WORKLOADS:
        wl.pin_to_one_cpu()
    try:
        if args.trace:
            metrics, parts = traced(root, work, args.workload, args.seed,
                                    checks)
            metrics["failed_frac"] = checks.failed / max(1, checks.attempted)
            units = PER_LAYER
            extra = layer_table(parts)
        else:
            timed = (timed_service if args.workload == "service_jobs"
                     else functools.partial(timed_cli,
                                            workload=args.workload))
            metrics, raw, factors = timed(
                root=root, work=work, seed=args.seed, seconds=args.seconds,
                checks=checks, refresh=args.refresh_reference)
            units = END_TO_END
            extra = [f"# host speed factor median {median(factors):.4f} "
                     f"over {len(factors)} probes; as measured:"]
            extra += [f"# raw {name:<30} {raw[name]:.6g} {units[name]}"
                      for name in units]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run's directory is still there
            pass
    for line in report_lines(metrics, units, checks) + extra:
        print(line)
    print(result_line(metrics, units, checks))
    return 0


if __name__ == "__main__":
    sys.exit(main())
