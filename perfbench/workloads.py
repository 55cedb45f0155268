"""Workload inputs, process runners and output checks of the benchmark.

Every workload is a set of *jobs* a user starts: one ``python -m repro``
process for the CLI workloads, one HTTP job for ``service_jobs``.  All
inputs are generated from the benchmark seed into a private work
directory; the program only ever sees those files and requests.

This module never imports ``repro``: the timed runs measure the program
as fresh child processes, exactly as a user starts it.
"""

from __future__ import annotations

import csv
import http.client
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import yaml

#: Seed whose outputs are compared against the tables in ``reference/``.
REFERENCE_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Per-process wall-clock cap [s]; a hung child is killed and counted failed.
PROC_TIMEOUT_S = 120.0

#: Shipped studies each CLI workload runs, as temporary copies whose
#: ``seed:`` is the benchmark seed.
ENGINE_GRID_STUDIES = ("sim_grid", "robustness_grid", "table4_grid")
NETWORK_STUDY = "national_network"

#: ``repro network optimize`` budget [W/km]: binding on the scale-1.0
#: national graph (lambda* ~ 944), unlike a slack budget that stops after
#: one unpriced selection.
NETWORK_BUDGET_W_PER_KM = 125.0

#: Wide sweep: 40 ISDs x 10 repeater counts x 50 thresholds = 20 000 cases.
WIDE_ISDS, WIDE_REPEATERS, WIDE_THRESHOLDS = 40, 10, 50
WIDE_SHARDS, WIDE_WORKERS, WIDE_JOBS = 64, 3, 2

#: Service: closed-loop clients, workers, result poll interval [s].  Every
#: request opens its own connection and asks the server to close it, as the
#: repository's own clients do (``urllib.request.urlopen`` in
#: ``tools/service_smoke.py`` and ``tests/test_service.py``).
SERVICE_CLIENTS, SERVICE_WORKERS, SERVICE_POLL_S = 2, 2, 0.01
#: Fresh jobs a timed service run completes at least (>= 100 so the p90
#: has ten samples beyond it).
SERVICE_MIN_FRESH = 100
#: Every REPEAT_EVERY-th submission of a client repeats one of its last
#: REPEAT_WINDOW fresh specs (a dedup hit on a retained finished job).
REPEAT_EVERY, REPEAT_WINDOW = 4, 4
#: Submissions per client in one round; the clients wait for each other at
#: the end of a round, and a timed run probes the host's speed between two
#: rounds while the server idles.
SERVICE_ROUND_SUBMITS = 8
#: Fresh jobs of one timed service iteration (three rounds), each iteration
#: on a fresh server and store: the service slows as its job history
#: grows, so every iteration must carry the same history.
SERVICE_ITERATION_FRESH = 36
#: A job still open this long after its submit counts as failed [s].
POLL_TIMEOUT_S = 60.0

#: Host-speed probe: a fresh interpreter that imports numpy and runs a fixed
#: mix of array and bytecode work.  It never touches the program, so its
#: wall moves only with the speed the shared host gives the benchmark.
HOST_PROBE_CODE = """
import numpy as np
a = np.random.default_rng(0).standard_normal(100_000)
for _ in range(30):
    a = np.sort(np.cumsum(a)) / a.size
s = 0
for i in range(400_000):
    s += i % 7
"""
#: Probe walls at the reference host speed [s] (a quiet 2-vCPU Xeon, Python
#: 3.11, numpy 2.4), by the number of probe copies run at once.
REFERENCE_PROBE_S = {1: 0.2, 2: 0.28}


def checkout_root() -> Path:
    """The checkout the benchmark runs in (the current directory)."""
    return Path.cwd()


def program_env(root: Path) -> dict:
    """Child environment resolving ``repro`` from the checkout's ``src``."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def require_program(root: Path) -> None:
    """Refuse to run without the program's sources next to the benchmark."""
    missing = [p for p in ("src/repro/__init__.py", "src/repro/cli.py",
                           "studies/national_network.yaml")
               if not (root / p).is_file()]
    if missing:
        raise SystemExit(f"perfbench: program sources not found under "
                         f"{root} (missing {', '.join(missing)})")


# -- generated inputs ---------------------------------------------------------


def seeded_study(root: Path, name: str, seed: int, out_dir: Path) -> Path:
    """Copy of ``studies/<name>.yaml`` whose ``seed:`` is ``seed``."""
    text = (root / "studies" / f"{name}.yaml").read_text()
    text, count = re.subn(r"(?m)^seed: *-?\d+ *$", f"seed: {seed}", text)
    if count != 1:
        raise SystemExit(f"perfbench: studies/{name}.yaml has no seed line")
    path = out_dir / f"{name}.yaml"
    path.write_text(text)
    return path


def wide_sweep_document(seed: int) -> dict:
    """The ~20 000-case radio study of ``wide_sweep_dist``.

    ISDs are stratified (one per 28 m stratum above 1850 m), so every seed
    evaluates the same amount of track; thresholds are distinct draws.
    """
    rng = random.Random(f"wide-{seed}")
    isds = [float(1850 + 28 * k + rng.randrange(28)) for k in range(WIDE_ISDS)]
    thresholds = sorted(v / 100.0 for v in rng.sample(range(2000, 3500),
                                                      WIDE_THRESHOLDS))
    return {
        "name": "wide-sweep",
        "engine": "radio",
        "description": "Benchmark wide sweep (ISD x repeaters x threshold)",
        "seed": seed,
        "axes": {"isd_m": isds,
                 "n_repeaters": list(range(WIDE_REPEATERS)),
                 "threshold_db": thresholds},
        "fixed": {"resolution_m": 50.0},
    }


def service_document(root: Path, seed: int) -> dict:
    """The shipped ``robustness_grid`` study document with seed ``seed``."""
    document = yaml.safe_load((root / "studies" /
                               "robustness_grid.yaml").read_text())
    document["seed"] = seed
    return document


def case_count(document: dict) -> int:
    return math.prod(len(v) for v in document["axes"].values())


# -- child processes ----------------------------------------------------------


@dataclass
class Proc:
    """One finished child process."""

    label: str
    returncode: int
    wall_s: float
    max_rss_mb: float
    stdout: Path


def run_repro(root: Path, args: list[str], out_dir: Path, label: str,
              ok_codes=(0,)) -> Proc:
    """Run ``python -m repro <args>``; time it and read its own rusage."""
    stdout = out_dir / f"{label}.out"
    with open(stdout, "wb") as out, open(out_dir / f"{label}.err", "wb") as err:
        t0 = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "repro", *args],
                                 cwd=root, env=program_env(root),
                                 stdout=out, stderr=err)
        returncode, rusage = _wait(child, PROC_TIMEOUT_S)
        wall = time.perf_counter() - t0
    if returncode not in ok_codes:
        tail = (out_dir / f"{label}.err").read_text(errors="replace")[-800:]
        print(f"perfbench: {label} exited {returncode}: {tail}",
              file=sys.stderr)
    return Proc(label, returncode, wall, rusage.ru_maxrss / 1024.0, stdout)


def _signal(pid: int, signum: int) -> None:
    """Signal a child that is not reaped yet (``Popen.send_signal`` would
    reap it through ``poll`` and lose its rusage)."""
    try:
        os.kill(pid, signum)
    except ProcessLookupError:
        pass


def _wait(child: subprocess.Popen, timeout_s: float):
    """Reap ``child`` with ``wait4`` (its own rusage), killing it on timeout."""
    timer = threading.Timer(timeout_s, _signal, (child.pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, rusage = os.wait4(child.pid, 0)
    finally:
        timer.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, rusage


# -- output checks ------------------------------------------------------------


@dataclass
class Checks:
    """Operations attempted/failed and named output-check verdicts."""

    attempted: int = 0
    failed: int = 0
    verdicts: list = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def op(self, ok: bool) -> bool:
        with self._lock:
            self.attempted += 1
            self.failed += 0 if ok else 1
        return ok

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        with self._lock:
            self.attempted += 1
            self.failed += 0 if ok else 1
            self.verdicts.append((name, bool(ok), detail))
        return ok


def read_long_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def check_long_table(checks: Checks, name: str, path: Path, cases: int,
                     axes: int, metrics: int) -> list[list[str]]:
    """Long CSV: one row per (case, metric), columns case/axes/metric/value."""
    if not checks.check(f"{name}.exists", path.is_file(), str(path)):
        return []
    header, rows = read_long_csv(path)
    distinct = len({row[0] for row in rows})
    checks.check(f"{name}.columns", len(header) == axes + 3,
                 f"{len(header)} columns")
    checks.check(f"{name}.rows", len(rows) == cases * metrics
                 and distinct == cases,
                 f"{len(rows)} rows over {distinct} cases, want "
                 f"{cases} x {metrics}")
    return rows


def _number(cell: str):
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def same_cell(a: str, b: str) -> bool:
    """Integers exactly, floats to 1e-9 relative (NaN == NaN), text exactly."""
    x, y = _number(a), _number(b)
    if type(x) is not type(y):
        return False
    if isinstance(x, float):
        if math.isnan(x) or math.isnan(y):
            return math.isnan(x) and math.isnan(y)
        return abs(x - y) <= 1e-9 * max(abs(x), abs(y))
    return x == y


def compare_reference(checks: Checks, name: str, header: list[str],
                      rows: list[list[str]], keep=None) -> None:
    """Compare rows (filtered by ``keep``) with ``reference/<name>.csv``."""
    ref_path = REFERENCE_DIR / f"{name}.csv"
    if not ref_path.is_file():
        checks.check(f"{name}.reference", False, f"missing {ref_path.name}")
        return
    ref_header, ref_rows = read_long_csv(ref_path)
    mine = [r for r in rows if keep is None or keep(r)]
    bad = [i for i, (a, b) in enumerate(zip(mine, ref_rows))
           if len(a) != len(b) or not all(map(same_cell, a, b))]
    checks.check(f"{name}.reference", header == ref_header
                 and len(mine) == len(ref_rows) and not bad,
                 f"{len(mine)} rows vs {len(ref_rows)}; first mismatch row "
                 f"{bad[0] if bad else '-'}")


def write_reference(name: str, header: list[str], rows: list[list[str]],
                    keep=None) -> None:
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    with open(REFERENCE_DIR / f"{name}.csv", "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(r for r in rows if keep is None or keep(r))


def wide_reference_row(row: list[str]) -> bool:
    """The sampled wide-sweep rows kept as reference (every 40th case)."""
    return int(row[0]) % 40 == 0


# -- CLI workloads --------------------------------------------------------------


@dataclass
class Iteration:
    """One pass over a workload's jobs."""

    procs: list[Proc]
    wall_s: float
    critical_path_s: float


def _finish_check(checks: Checks, procs: list[Proc]) -> None:
    for proc in procs:
        checks.op(proc.returncode == 0)


def _table(checks, seed, refresh, name, path, cases, axes, metrics,
           keep=None):
    rows = check_long_table(checks, name, path, cases, axes, metrics)
    if seed == REFERENCE_SEED and rows:
        header = read_long_csv(path)[0]
        if refresh:
            write_reference(name, header, rows, keep)
        else:
            compare_reference(checks, name, header, rows, keep)
    return rows


def network_national(root: Path, work: Path, inputs: Path, seed: int,
                     checks: Checks, refresh: bool = False) -> Iteration:
    study = inputs / f"{NETWORK_STUDY}.yaml"
    procs = [
        run_repro(root, ["study", "run", str(study), "--store",
                         str(work / "store"), "--csv",
                         str(work / "national.csv")], work, "study_run"),
        run_repro(root, ["network", "optimize", "--energy-budget",
                         f"{NETWORK_BUDGET_W_PER_KM:g}"], work, "optimize"),
    ]
    _finish_check(checks, procs)
    rows = _table(checks, seed, refresh, "national_network",
                  work / "national.csv", 24, 3, 13)
    check_network_plan(checks, procs[1].stdout, rows)
    wall = sum(p.wall_s for p in procs)
    return Iteration(procs, wall, wall)


def check_network_plan(checks: Checks, stdout: Path,
                       study_rows: list[list[str]]) -> None:
    """lambda* > 0 and the CLI's total energy within the binding budget.

    The graph length comes from the study's matching cell (scale 1.0,
    budget 125 W/km, full mix): length = total_energy_kw / mean_w_per_km.
    """
    text = stdout.read_text() if stdout.is_file() else ""
    found = dict(re.findall(r"^\s*(lambda\*|total energy \[kW\])\s*\|\s*"
                            r"([-0-9.eE+]+)\s*$", text, flags=re.M))
    lam = float(found.get("lambda*", "nan"))
    energy_kw = float(found.get("total energy [kW]", "nan"))
    checks.check("optimize.lambda_binding", lam > 0, f"lambda* = {lam}")
    cell = {row[4]: row[5] for row in study_rows
            if row[1] == "1.0" and row[2] == f"{NETWORK_BUDGET_W_PER_KM}"
            and row[3] == "conventional,repeater,mobile_relay"}
    try:
        length_km = (float(cell["total_energy_kw"]) * 1e3
                     / float(cell["mean_w_per_km"]))
    except (KeyError, ValueError, ZeroDivisionError):
        checks.check("optimize.within_budget", False, "no study cell")
        return
    budget_kw = NETWORK_BUDGET_W_PER_KM * length_km / 1e3
    checks.check("optimize.within_budget",
                 energy_kw <= budget_kw + 5e-4
                 and abs(energy_kw - float(cell["total_energy_kw"])) <= 5e-4,
                 f"{energy_kw} kW vs budget {budget_kw:.3f} kW")


_GRID_SHAPES = {  # cases, axes, metrics (engine + derived)
    "sim_grid": (27, 3, 10),
    "robustness_grid": (27, 3, 6),
    "table4_grid": (140, 3, 9),
}


def engine_grids(root: Path, work: Path, inputs: Path, seed: int,
                 checks: Checks, refresh: bool = False) -> Iteration:
    procs = []
    for name in ENGINE_GRID_STUDIES:
        csv_path = work / f"{name}.csv"
        procs.append(run_repro(
            root, ["study", "run", str(inputs / f"{name}.yaml"), "--store",
                   str(work / f"store-{name}"), "--csv", str(csv_path)],
            work, name))
        _table(checks, seed, refresh, name, csv_path, *_GRID_SHAPES[name])
    _finish_check(checks, procs)
    wall = sum(p.wall_s for p in procs)
    return Iteration(procs, wall, wall)


def wide_sweep_dist(root: Path, work: Path, inputs: Path, seed: int,
                    checks: Checks, refresh: bool = False) -> Iteration:
    study = str(inputs / "wide_sweep.yaml")
    procs, manifests = [], []
    for k in range(WIDE_WORKERS):
        store = work / f"worker{k}"
        manifests.append(str(store / f"worker{k}.json"))
        procs.append(run_repro(
            root, ["study", "shard", study, "--index", str(k), "--of",
                   str(WIDE_WORKERS), "--jobs", str(WIDE_JOBS), "--shards",
                   str(WIDE_SHARDS), "--store", str(store), "--manifest",
                   manifests[-1]], work, f"shard{k}"))
    merged = work / "merged.csv"
    procs.append(run_repro(root, ["study", "merge", study, *manifests,
                                  "--csv", str(merged)], work, "merge"))
    _finish_check(checks, procs)
    checks.check("merge.exit", procs[-1].returncode == 0,
                 f"exit {procs[-1].returncode}")
    _table(checks, seed, refresh, "wide_sweep", merged,
           WIDE_ISDS * WIDE_REPEATERS * WIDE_THRESHOLDS, 3, 4,
           keep=wide_reference_row)
    wall = sum(p.wall_s for p in procs)
    critical = max(p.wall_s for p in procs[:-1]) + procs[-1].wall_s
    return Iteration(procs, wall, critical)


CLI_WORKLOADS = {
    "network_national": network_national,
    "engine_grids": engine_grids,
    "wide_sweep_dist": wide_sweep_dist,
}

#: Processes of a CLI workload that run at once; the host-speed probe after
#: each of its iterations runs as many copies, so it meets the same
#: contention for the two vCPUs.
CLI_WIDTH = {"network_national": 1, "engine_grids": 1,
             "wide_sweep_dist": WIDE_JOBS}
#: Workloads whose processes, threads and probes all run on one CPU.
ONE_CPU_WORKLOADS = ("network_national", "engine_grids", "service_jobs")


def pin_to_one_cpu() -> set:
    """Restrict the calling thread, and every thread and child process it
    starts from now on, to one CPU; returns the CPUs it was allowed before.

    The program's processes and threads and the host-speed probes then
    share one CPU, so the probe meets the same contention as the program
    whatever the other CPUs do."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return allowed


def prepare_inputs(root: Path, workload: str, seed: int, inputs: Path) -> None:
    """Write the workload's generated input files into ``inputs``."""
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "network_national":
        seeded_study(root, NETWORK_STUDY, seed, inputs)
    elif workload == "engine_grids":
        for name in ENGINE_GRID_STUDIES:
            seeded_study(root, name, seed, inputs)
    elif workload == "wide_sweep_dist":
        (inputs / "wide_sweep.yaml").write_text(
            yaml.safe_dump(wide_sweep_document(seed), sort_keys=False))


def cli_setup_s(root: Path, work: Path, checks: Checks, repeats: int) -> list:
    """Walls of a fresh ``repro study list <empty dir>`` (interpreter start
    plus CLI imports; exit 1 with 'no study files' is its correct output)."""
    empty = work / "empty"
    empty.mkdir(exist_ok=True)
    walls = []
    for i in range(repeats):
        proc = run_repro(root, ["study", "list", str(empty)], work,
                         f"setup{i}", ok_codes=(1,))
        err = (work / f"setup{i}.err").read_text()
        checks.op(proc.returncode == 1 and "no study files" in err)
        walls.append((proc.wall_s, proc.max_rss_mb))
    return walls


def host_factors(work: Path, repeats: int, width: int = 1) -> list[float]:
    """Host-speed factors of ``repeats`` probes: ``width`` fresh runs of
    HOST_PROBE_CODE at once, REFERENCE_PROBE_S over the wall until all end.
    A wall times its factor is the wall at the reference host speed."""
    factors = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        children = [subprocess.Popen([sys.executable, "-c", HOST_PROBE_CODE],
                                     cwd=work) for _ in range(width)]
        codes = [_wait(child, PROC_TIMEOUT_S)[0] for child in children]
        if any(codes):
            raise SystemExit(f"perfbench: host-speed probe exited {codes}")
        factors.append(REFERENCE_PROBE_S[width]
                       / (time.perf_counter() - t0))
    return factors


# -- service workload -----------------------------------------------------------


class Server:
    """A ``repro serve`` child on a free port with a fresh store."""

    def __init__(self, root: Path, store: Path, log: Path) -> None:
        self.t0 = time.perf_counter()
        self._err = open(log, "wb")
        self.child = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(SERVICE_WORKERS), "--store", str(store)],
            cwd=root, env=program_env(root), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE)
        # A server that never announces its port is killed, not waited on.
        guard = threading.Timer(60.0, _signal,
                                (self.child.pid, signal.SIGKILL))
        guard.start()
        line = self.child.stderr.readline().decode(errors="replace")
        guard.cancel()
        match = re.search(r"http://[^:]+:(\d+)", line)
        self.port = int(match.group(1)) if match else None
        self._drain = threading.Thread(target=self._copy_stderr, daemon=True)
        self._drain.start()
        self.ready_s = None
        if self.port is not None:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                try:
                    status, _ = request(self.port, "GET", "/readyz")
                except OSError:
                    status = None
                if status == 200:
                    self.ready_s = time.perf_counter() - self.t0
                    break
                time.sleep(0.002)

    def _copy_stderr(self) -> None:
        for chunk in iter(lambda: self.child.stderr.read1(65536), b""):
            self._err.write(chunk)

    def stop(self) -> tuple[int, float]:
        """SIGTERM (graceful drain), reap; returns (exit code, max RSS MB)."""
        _signal(self.child.pid, signal.SIGTERM)
        returncode, rusage = _wait(self.child, 60.0)
        self._drain.join(timeout=10.0)
        self.child.stderr.close()
        self._err.close()
        return returncode, rusage.ru_maxrss / 1024.0


def request(port: int, method: str, path: str, body: bytes | None = None,
            headers: dict | None = None):
    """One HTTP exchange on its own connection; returns (status, body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request(method, path, body=body,
                     headers={**(headers or {}), "Connection": "close"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


@dataclass
class Submission:
    """One submit -> final-result round trip of a service client."""

    client: int
    seed: int
    fresh: bool
    round: int = 0
    created: bool = False
    status: int = 0
    latency_s: float = 0.0
    submit_rtt_s: float = 0.0
    fetch_rtt_s: float = 0.0
    result_bytes: int = 0
    view: dict = field(default_factory=dict)
    document: dict | None = None


@dataclass
class _ClientState:
    """What one closed-loop client carries from round to round."""

    client: int
    rng: random.Random
    submitted: int = 0
    fresh_index: int = 0
    recent: list = field(default_factory=list)
    documents: dict = field(default_factory=dict)


class ServiceClients:
    """Closed-loop clients: submit, poll the result every SERVICE_POLL_S,
    submit the next.  They run in rounds of SERVICE_ROUND_SUBMITS
    submissions each; ``between_rounds()``, if given, runs after every
    round and returns that round's host-speed factor.  Stops after the
    round in which ``min_fresh`` fresh jobs have completed."""

    def __init__(self, port: int, base_document: dict, seed: int,
                 checks: Checks, min_fresh: int,
                 between_rounds=None) -> None:
        self.port = port
        self.base_document = base_document
        self.checks = checks
        self.min_fresh = min_fresh
        self.between_rounds = between_rounds
        self.base_seed = random.Random(f"service-{seed}").randrange(1, 2**30)
        self.submissions: list[Submission] = []
        #: (wall, host-speed factor) of every round.
        self.rounds: list[tuple[float, float]] = []
        self.rejected = 0
        self._lock = threading.Lock()
        self._fresh_done = 0
        self._broken = False
        self.wall_s = 0.0

    def fresh_seed(self, client: int, index: int) -> int:
        return self.base_seed + SERVICE_CLIENTS * index + client

    def run(self) -> None:
        self.started = time.perf_counter()
        states = [_ClientState(c, random.Random(
            f"repeats-{self.base_seed}-{c}")) for c in range(SERVICE_CLIENTS)]
        while not self._broken and self._fresh_done < self.min_fresh:
            t0 = time.perf_counter()
            threads = [threading.Thread(target=self._round,
                                        args=(state, len(self.rounds)))
                       for state in states]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - t0
            factor = self.between_rounds() if self.between_rounds else 1.0
            self.rounds.append((wall, factor))
        self.wall_s = time.perf_counter() - self.started

    def _round(self, state: _ClientState, index: int) -> None:
        for _ in range(SERVICE_ROUND_SUBMITS):
            if self._broken:
                return
            k = state.submitted
            state.submitted += 1
            if k % REPEAT_EVERY == REPEAT_EVERY - 1 and state.recent:
                sub = Submission(state.client, state.rng.choice(state.recent),
                                 fresh=False, round=index)
            else:
                sub = Submission(state.client, self.fresh_seed(
                    state.client, state.fresh_index), fresh=True, round=index)
                state.fresh_index += 1
            try:
                self._round_trip(sub)
            except (OSError, http.client.HTTPException, ValueError,
                    KeyError) as exc:
                # A dead or garbled server ends the run; it reports the
                # failure instead of spinning.
                self.checks.check("service.exchange", False, repr(exc))
                self._broken = True
                return
            ok = sub.status == 200 and sub.view.get("state") == "done"
            self.checks.op(ok)
            documents = state.documents
            if ok and sub.fresh:
                documents[sub.seed] = sub.document
                state.recent = (state.recent + [sub.seed])[-REPEAT_WINDOW:]
                for old in list(documents):
                    if (old not in state.recent
                            and old != self.fresh_seed(0, 0)):
                        del documents[old]
            elif ok:
                self.checks.check(
                    "service.dedup_same_document",
                    sub.document == documents.get(sub.seed),
                    f"seed {sub.seed}")
            if ok:
                rows = sub.document.get("rows", [])
                self.checks.check(
                    "service.result_shape",
                    len(rows) == case_count(self.base_document)
                    and all(len(r) == 10 for r in rows),
                    f"{len(rows)} rows")
            with self._lock:
                self.submissions.append(sub)
                self._fresh_done += int(ok and sub.fresh)

    def _round_trip(self, sub: Submission) -> None:
        document = dict(self.base_document, seed=sub.seed)
        body = json.dumps({"study": document}).encode()
        headers = {"Content-Type": "application/json",
                   "X-Client-Id": f"client-{sub.client}"}
        t0 = time.perf_counter()
        status, payload = request(self.port, "POST", "/jobs", body, headers)
        sub.submit_rtt_s = time.perf_counter() - t0
        if status in (429, 503):
            with self._lock:
                self.rejected += 1
        if status not in (200, 201):
            sub.status = status
            return
        answer = json.loads(payload)
        sub.created = bool(answer["created"])
        job_id = answer["job"]["job"]
        while True:
            t1 = time.perf_counter()
            status, payload = request(self.port, "GET",
                                      f"/jobs/{job_id}/result", None, headers)
            if status != 202:
                break
            if time.perf_counter() - t0 > POLL_TIMEOUT_S:
                sub.status = 0  # never finished: a failed submission
                return
            time.sleep(SERVICE_POLL_S)
        now = time.perf_counter()
        sub.fetch_rtt_s = now - t1
        sub.latency_s = now - t0
        sub.status = status
        sub.result_bytes = len(payload)
        answer = json.loads(payload)
        sub.view = answer.get("job", {})
        sub.document = answer.get("result")


def check_service_reference(checks: Checks, clients: ServiceClients,
                            seed: int, refresh: bool) -> None:
    """Seed-0 outputs: client 0's first fresh job against the reference."""
    if seed != REFERENCE_SEED:
        return
    first = clients.fresh_seed(0, 0)
    sub = next((s for s in clients.submissions
                if s.fresh and s.seed == first and s.document), None)
    if sub is None:
        checks.check("service.reference", False, "first job missing")
        return
    names = list(sub.document["rows"][0])
    header = names
    rows = [[_csv_cell(r[n]) for n in names] for r in sub.document["rows"]]
    if refresh:
        write_reference("service_job", header, rows)
    else:
        compare_reference(checks, "service_job", header, rows)


def _csv_cell(value) -> str:
    if value is None:
        return "nan"
    return repr(value) if isinstance(value, float) else str(value)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank quantile: the smallest sample with at least a share
    ``q`` of the samples at or below it (0.0 without samples)."""
    values = sorted(values)
    if not values:
        return 0.0
    return values[max(0, math.ceil(q * len(values)) - 1)]
