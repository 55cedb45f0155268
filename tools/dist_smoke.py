#!/usr/bin/env python
"""CI distributed smoke: shard a study across workers, merge, assert parity.

Usage::

    PYTHONPATH=src python tools/dist_smoke.py \\
        [--study studies/national_network.yaml]

Subprocess legs through the real ``repro study`` CLI:

1. **clean** — the study as one single-process run (exit 0, reference rows);
2. **shards** — the same study as three independent ``repro study shard``
   invocations (worker K of 3, each with its own store and manifest); one
   worker runs under an injected hard-crash fault plan with ``--retries``,
   so the supervisor's recovery machinery is exercised inside a slice
   (all exit 0);
3. **merge** — ``repro study merge`` over the three manifests (exit 0);
   the merged rows must be byte-identical to the clean leg;
4. **refresh** — a v2 document (one value appended to the study's longest
   numeric axis) refreshed with ``repro study refresh`` against the merged
   store (exit 0); its rows must be byte-identical to a clean
   ``repro study run`` of v2;
5. **v1 manifest** — one worker manifest rewritten in the version-1
   format (with its ``backend`` field) and re-signed must be rejected by
   ``repro study merge`` with exit 4 and kind ``manifest``, naming the
   unsupported version;
6. **tamper** — the merge re-run against a hand-corrupted manifest must be
   rejected with exit 4 (structured validation, not a quiet wrong table).

When ``BENCH_JSON_DIR`` is set, a ``BENCH_dist.json`` record (exit codes,
wall times, retry evidence, parity verdicts) is written so the distributed
evidence rides the same CI artifact as the perf records.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.study import read_journal  # noqa: E402
from repro.study.manifest import sign_payload  # noqa: E402

WORKERS = 3


def run_cli(args: list[str], label: str) -> tuple[int, float, str]:
    """Run a ``repro study`` subcommand; return (exit code, wall seconds,
    stderr).  The stderr text is echoed as well as returned."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    command = [sys.executable, "-m", "repro", "study", *args]
    print(f"[dist-smoke] {label}: {' '.join(command[3:])}")
    t0 = time.perf_counter()
    proc = subprocess.run(command, cwd=REPO, env=env, stderr=subprocess.PIPE,
                          text=True)
    wall_s = time.perf_counter() - t0
    sys.stderr.write(proc.stderr)
    print(f"[dist-smoke] {label}: exit {proc.returncode} in {wall_s:.1f}s")
    return proc.returncode, wall_s, proc.stderr


def load_rows(path: Path) -> list[dict]:
    return json.loads(path.read_text())["rows"]


def write_v2(study: Path, out: Path) -> None:
    """Write ``study`` with one value appended to its longest numeric axis
    (the axis whose new value adds the fewest cases)."""
    import yaml

    document = yaml.safe_load(study.read_text())
    numeric = [values for values in document["axes"].values()
               if len(values) > 1
               and all(isinstance(v, (int, float)) for v in values)]
    values = max(numeric, key=len)
    values.append(values[-1] + (values[-1] - values[-2]))
    out.write_text(yaml.safe_dump(document, sort_keys=False))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--study", default=str(REPO / "studies/national_network.yaml"),
        help="study document to run (default: national_network.yaml)")
    parser.add_argument("--shards", type=int, default=6,
                        help="global shard count shared by all workers")
    args = parser.parse_args(argv)

    work = Path(tempfile.mkdtemp(prefix="dist-smoke-"))
    record: dict = {"study": args.study, "shards": args.shards,
                    "workers": WORKERS}
    try:
        # Leg 1: clean single-process reference.
        clean_json = work / "clean.json"
        code, record["clean_s"], _ = run_cli(
            ["run", args.study, "--quiet", "--shards", str(args.shards),
             "--json", str(clean_json)], "clean")
        if code != 0:
            print(f"[dist-smoke] FAIL: clean run exited {code}")
            return 1

        # Leg 2: three independent shard slices.  Worker 1 runs under an
        # injected hard-crash on the first attempt of one of its shards
        # (round-robin: worker 1 of 3 owns global shards 1, 4, ...) and
        # must recover via --retries.
        manifests: list[Path] = []
        record["worker_s"] = []
        for worker in range(WORKERS):
            store = work / f"worker{worker}"
            manifest = store / f"manifest-w{worker}.json"
            cli = ["shard", args.study, "--quiet",
                   "--index", str(worker), "--of", str(WORKERS),
                   "--shards", str(args.shards), "--store", str(store),
                   "--manifest", str(manifest)]
            if worker == 1:
                plan = work / "plan.json"
                plan.write_text(json.dumps({"faults": [
                    {"shard": 1, "attempt": 1, "action": "crash"},
                ]}))
                cli += ["--jobs", "2", "--retries", "2",
                        "--fault-plan", str(plan)]
            code, wall_s, _ = run_cli(cli, f"worker {worker}/{WORKERS}")
            record["worker_s"].append(wall_s)
            if code != 0:
                print(f"[dist-smoke] FAIL: worker {worker} exited {code}")
                return 1
            manifests.append(manifest)

        faulted = read_journal(work / "worker1" / "run.jsonl")
        retries = sum(1 for e in faulted if e["event"] == "retry")
        record["worker1_retries"] = retries
        if retries < 1:
            print("[dist-smoke] FAIL: faulted worker journal shows no retry")
            return 1

        # Leg 3: merge the three manifests; rows must be byte-identical
        # to the clean single-process run.
        merged_json = work / "merged.json"
        merged_store = work / "merged"
        code, record["merge_s"], _ = run_cli(
            ["merge", args.study, *[str(p) for p in manifests],
             "--out-store", str(merged_store), "--quiet",
             "--json", str(merged_json)], "merge")
        record["merge_exit"] = code
        if code != 0:
            print(f"[dist-smoke] FAIL: merge exited {code}, expected 0")
            return 1
        parity = load_rows(merged_json) == load_rows(clean_json)
        record["rows_identical"] = parity
        if not parity:
            print("[dist-smoke] FAIL: merged rows differ from clean run")
            return 1

        # Leg 4: refresh a v2 of the study against the merged store; its
        # rows must be byte-identical to a clean run of v2.
        v2 = work / "v2.yaml"
        write_v2(Path(args.study), v2)
        refreshed_json = work / "refreshed.json"
        code, record["refresh_s"], _ = run_cli(
            ["refresh", str(v2), "--previous", args.study,
             "--store", str(merged_store), "--quiet",
             "--json", str(refreshed_json)], "refresh")
        record["refresh_exit"] = code
        if code != 0:
            print(f"[dist-smoke] FAIL: refresh exited {code}, expected 0")
            return 1
        end = [e for e in read_journal(merged_store / "run.jsonl")
               if e["event"] == "refresh_end"][-1]
        record["refresh_changed"] = end["changed"]
        record["refresh_reused"] = end["reused"]
        if not end["reused"]:
            print("[dist-smoke] FAIL: refresh reused no rows of the merged "
                  "store")
            return 1
        v2_json = work / "v2-clean.json"
        code, record["v2_clean_s"], _ = run_cli(
            ["run", str(v2), "--quiet", "--json", str(v2_json)], "v2 clean")
        if code != 0:
            print(f"[dist-smoke] FAIL: clean v2 run exited {code}")
            return 1
        parity = load_rows(refreshed_json) == load_rows(v2_json)
        record["refresh_rows_identical"] = parity
        if not parity:
            print("[dist-smoke] FAIL: refreshed rows differ from a clean "
                  "v2 run")
            return 1

        # Leg 5: a version-1 manifest (with a backend field), re-signed,
        # must be refused by its version: exit 4, kind "manifest".
        v1_manifest = work / "worker1" / "manifest-w1-v1.json"
        payload = dict(json.loads(manifests[1].read_text())["manifest"],
                       manifest_version=1, backend="numpy")
        v1_manifest.write_text(json.dumps(
            {"manifest": payload, "signature": sign_payload(payload)}))
        code, record["v1_manifest_s"], err = run_cli(
            ["merge", args.study, str(manifests[0]), str(v1_manifest),
             str(manifests[2]), "--quiet"], "v1 manifest")
        record["v1_manifest_exit"] = code
        record["v1_manifest_kind_manifest"] = (
            "merge rejected [manifest]" in err
            and "unsupported manifest_version 1" in err)
        if code != 4 or not record["v1_manifest_kind_manifest"]:
            print(f"[dist-smoke] FAIL: v1 manifest merge exited {code} "
                  "(expected 4, kind manifest, naming version 1)")
            return 1

        # Leg 6: a tampered manifest must be rejected with exit 4.
        document = json.loads(manifests[2].read_text())
        document["manifest"]["bundles"][0]["checksum"] = "0" * 64
        manifests[2].write_text(json.dumps(document))
        code, record["tamper_s"], _ = run_cli(
            ["merge", args.study, *[str(p) for p in manifests],
             "--quiet"], "tamper")
        record["tamper_exit"] = code
        if code != 4:
            print(f"[dist-smoke] FAIL: tampered merge exited {code}, "
                  "expected 4")
            return 1

        out_dir = os.environ.get("BENCH_JSON_DIR")
        if out_dir:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / "BENCH_dist.json").write_text(
                json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"[dist-smoke] PASS: {WORKERS}-worker merge identical to "
              "clean run, faulted worker recovered, refresh of the merged "
              "store identical to a clean v2 run, v1 and tampered "
              "manifests rejected (exit 4)")
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
