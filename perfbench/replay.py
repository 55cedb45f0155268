"""In-process replay of one workload part, optionally traced.

Run as a fresh process per part, so the program's module-level caches
start cold exactly as they do for a CLI user::

    python3 perfbench/replay.py --part shard:0 --inputs DIR --work DIR \\
        --seed 0 --mode traced

The replay makes the public calls the CLI makes (``load_study`` ->
``run_study`` -> ``write_csv``; ``run_shard_slice`` -> ``merge_manifests``;
``optimize_network``; an in-process ``ScenarioService``), with shards run
inline so every span is observable from this process.  In ``traced`` mode
the benchmark wraps those public functions -- at every name the program's
modules bind them to, so kernels are timed where the engines import them --
and prints per-layer calls, inclusive and self time (span minus child
spans on the same thread), counters and the share of the wall during which
some thread runs the self time of a span that a per-layer metric reports
(``run.COVERED_SPANS``).  In ``plain`` mode it prints only the wall, so the difference
between the two is the tracing overhead.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (benchmark helpers, no repro import)
from run import COVERED_SPANS  # noqa: E402


class Tracer:
    """Thread-aware span recorder: per-layer calls, total and self time,
    plus the self-time stretches of the spans in ``covered``."""

    def __init__(self, covered=COVERED_SPANS) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.layers: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self.covered = frozenset(covered)
        self.stretches: list[tuple[float, float]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``name`` may be ``f(parent) -> name``."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            label = name(stack[-1][0] if stack else None) \
                if callable(name) else name
            t0 = time.perf_counter()
            if stack:
                tracer._stretch(stack[-1], t0)
            # label, child time, start of the current self-time stretch
            frame = [label, 0.0, t0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer._stretch(frame, t1)
                duration = t1 - t0
                with tracer._lock:
                    layer = tracer.layers[label]
                    layer[0] += 1
                    layer[1] += duration
                    layer[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                    stack[-1][2] = t1
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def _stretch(self, frame: list, stop: float) -> None:
        """Record ``frame``'s self-time stretch ending at ``stop``."""
        if frame[0] in self.covered:
            with self._lock:
                self.stretches.append((frame[2], stop))

    def covered_s(self, start: float, stop: float) -> float:
        """Length of the union, over all threads, of the recorded
        self-time stretches inside [start, stop]."""
        covered, reach = 0.0, start
        for t0, t1 in sorted(self.stretches):
            t0, t1 = max(t0, reach), min(t1, stop)
            if t1 > t0:
                covered += t1 - t0
                reach = t1
        return covered


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module binding of ``original`` at the wrapper."""
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _kernel_bytes(tracer, args, kwargs, result) -> None:
    size = sum(a.nbytes for a in (*args, *kwargs.values())
               if isinstance(a, np.ndarray))
    tracer.count("kernels.bytes_computed", size)


def _csv_bytes(tracer, args, kwargs, result) -> None:
    tracer.count("table.csv_bytes", Path(result).stat().st_size)


def _by_parent(inside_merge: str, otherwise: str):
    """Span name that depends on whether the caller is the merge."""
    return lambda parent: inside_merge if parent == "dist.merge" else otherwise


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every benchmarked layer."""
    import repro.kernels as kernels
    import repro.network.frontier as frontier
    import repro.network.optimize as optimize
    import repro.network.presets as presets
    import repro.optimize.mc as mc
    import repro.radio.batch as radio
    import repro.simulation.batch as simulation
    import repro.solar.batch as solar
    import repro.study.distributed as distributed
    import repro.study.engines as engines
    import repro.study.manifest as manifest
    import repro.study.results as results
    import repro.study.runner as runner
    import repro.study.spec as spec
    from repro.scenario.cache import ProfileCache
    from repro.scenario.spec import Scenario
    from repro.service.app import ServiceApp
    from repro.service.jobstore import JobStore
    from repro.service.queue import JobQueue
    from repro.study.journal import RunJournal

    functions = [
        (spec.load_study, "spec.load", None),
        (spec.study_from_mapping, "spec.load", None),
        (engines.run_cases,
         _by_parent("dist.crn_check", "engines.run_cases"), None),
        (runner.run_study, "runner.run_study", None),
        (radio.evaluate_scenarios, "radio.evaluate_scenarios", None),
        (solar.simulate_systems, "solar.simulate_systems", None),
        (mc.outage_matrix, "mc.outage_matrix", None),
        (simulation.simulate_days, "simulation.simulate_days", None),
        (presets.build_graph, "network.build_graph", None),
        (frontier.segment_frontiers, "network.segment_frontiers", None),
        (optimize.optimize_network, "network.optimize_network", None),
        (results.merge_shards, "table.merge_shards", None),
        (results.build_table, "table.build", None),
        (manifest.build_manifest, "manifest.build", None),
        (manifest.write_manifest, "manifest.build", None),
        (manifest.load_manifest, "manifest.verify", None),
        (distributed.run_shard_slice, "dist.slice", None),
        (distributed.merge_manifests, "dist.merge", None),
    ] + [(getattr(kernels, k), f"kernels.{k}", _kernel_bytes)
         for k in kernels.KERNEL_NAMES]
    for fn, name, after in functions:
        _rebind(fn, tracer.span(name, fn, after))

    methods = [
        (spec.StudySpec, "cases", "spec.cases", None),
        (engines.EngineAdapter, "resolve", "engines.resolve", None),
        (results.StudyStore, "put_shard", "store.put", None),
        (results.StudyStore, "get_shard", "store.get", None),
        (results.StudyStore, "shard_checksum",
         _by_parent("manifest.verify", "manifest.build"), None),
        (results.StudyTable, "write_csv", "table.write_csv", _csv_bytes),
        (results.StudyTable, "to_document", "table.to_document", None),
        (RunJournal, "emit", "journal.emit", None),
        (RunJournal, "append", "journal.emit", None),
        (ServiceApp, "dispatch", "service.edge", None),
        (JobQueue, "submit", "service.submit", None),
        (JobQueue, "result", "service.result", None),
        (optimize.NetworkAssignment, "table", "network.report", None),
    ] + [(JobStore, m, "service.jobstore", None)
         for m in ("service_start", "job_submitted", "job_started",
                   "job_finished", "service_stop")]
    for cls, attr, name, after in methods:
        setattr(cls, attr, tracer.span(name, getattr(cls, attr), after))
    for cls, attr, name in ((spec.StudySpec, "compute_hash",
                             "spec.compute_hash"),
                            (Scenario, "content_hash",
                             "scenario.content_hash")):
        setattr(cls, attr, property(tracer.span(name,
                                                getattr(cls, attr).fget)))
    original_get = ProfileCache.get

    def get(self, scenario):
        result = original_get(self, scenario)
        tracer.count("scenario.profile_lookups")
        tracer.count("scenario.profile_hits", result is not None)
        return result

    ProfileCache.get = get


# -- parts ----------------------------------------------------------------------


def study_run(name: str, inputs: Path, work: Path) -> None:
    from repro.study import StudyStore, load_study, run_study

    spec = load_study(inputs / f"{name}.yaml")
    store = StudyStore(maxsize=1024, cache_dir=work / f"store-{name}")
    report = run_study(spec, jobs=1, store=store)
    report.table.write_csv(work / f"{name}.csv")


def network_optimize() -> None:
    from repro.network import TechnologyCatalog, build_graph
    from repro.network.optimize import optimize_network

    graph = build_graph("national", n_segments=0, demand_scale=1.0)
    catalog = TechnologyCatalog.from_names(
        "conventional,repeater,mobile_relay", min_sleep_headway_s=300.0)
    plan = optimize_network(
        graph, catalog,
        energy_budget_w=workloads.NETWORK_BUDGET_W_PER_KM * graph.length_km,
        cost_budget_eur=None, resolution_m=25.0, horizon_years=10.0,
        jobs=None, engine="batched")
    plan.table(limit=20)
    if not plan.lambda_star > 0:
        raise SystemExit("replay: the network budget went slack")


def shard(index: int, inputs: Path, work: Path) -> None:
    from repro.study import StudyStore, load_study, run_shard_slice

    spec = load_study(inputs / "wide_sweep.yaml")
    store = StudyStore(maxsize=1024, cache_dir=work / f"worker{index}")
    run_shard_slice(spec, index, workloads.WIDE_WORKERS, store, jobs=1,
                    shards=workloads.WIDE_SHARDS,
                    manifest_path=work / f"worker{index}"
                    / f"worker{index}.json")


def merge(inputs: Path, work: Path) -> None:
    from repro.study import load_study, merge_manifests

    spec = load_study(inputs / "wide_sweep.yaml")
    manifests = [work / f"worker{k}" / f"worker{k}.json"
                 for k in range(workloads.WIDE_WORKERS)]
    merged = merge_manifests(spec, manifests)
    merged.table.write_csv(work / "merged.csv")


#: Fresh jobs per in-process service replay.
REPLAY_SERVICE_JOBS = 40


def service(root: Path, seed: int, work: Path) -> tuple[float, float]:
    from repro.service import ScenarioService

    server = ScenarioService("127.0.0.1", 0, work / "service-store",
                             workers=workloads.SERVICE_WORKERS)
    server.start()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    checks = workloads.Checks()
    clients = workloads.ServiceClients(
        server.port, workloads.service_document(root, seed), seed, checks,
        REPLAY_SERVICE_JOBS)
    try:
        clients.run()
    finally:
        server.initiate_shutdown()
        thread.join(timeout=60.0)
    if checks.failed:
        raise SystemExit(f"replay: {checks.failed} service operations failed")
    return clients.started, clients.started + clients.wall_s


def run_part(part: str, root: Path, inputs: Path,
             work: Path, seed: int) -> tuple[float, float]:
    """Execute one part; returns its (start, stop) perf-counter window
    (the client window for the service)."""
    kind, _, arg = part.partition(":")
    t0 = time.perf_counter()
    if kind == "study_run":
        study_run(arg, inputs, work)
    elif kind == "optimize":
        network_optimize()
    elif kind == "shard":
        shard(int(arg), inputs, work)
    elif kind == "merge":
        merge(inputs, work)
    elif kind == "service":
        return service(root, seed, work)
    else:
        raise SystemExit(f"replay: unknown part {part!r}")
    return t0, time.perf_counter()


def _tree_bytes(work: Path, pattern: str) -> int:
    return sum(p.stat().st_size for p in work.rglob(pattern) if p.is_file())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--part", required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("plain", "traced"),
                        required=True)
    args = parser.parse_args(argv)
    root = workloads.checkout_root()
    sys.path.insert(0, str(root / "src"))
    import repro.cli  # noqa: F401  (the CLI's import state, before timing)
    import repro.network  # noqa: F401
    import repro.service  # noqa: F401
    import repro.study  # noqa: F401

    args.work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.mode == "traced" else None
    if tracer is not None:
        install(tracer)
    npz_before = _tree_bytes(args.work, "*.npz")
    start, stop = run_part(args.part, root, args.inputs, args.work,
                           args.seed)
    report = {"part": args.part, "mode": args.mode, "wall_s": stop - start}
    if tracer is not None:
        counters = dict(tracer.counters)
        counters["store.bytes_written"] = (_tree_bytes(args.work, "*.npz")
                                           - npz_before)
        counters["store.quarantined"] = sum(
            1 for p in args.work.rglob("quarantine/*") if p.is_file())
        report.update(
            layers={k: list(v) for k, v in tracer.layers.items()},
            counters=counters,
            covered_s=tracer.covered_s(start, stop))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
