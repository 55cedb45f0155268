#!/usr/bin/env python
"""CI service smoke: drive ``repro serve`` end to end, then kill -9 it.

Usage::

    PYTHONPATH=src python tools/service_smoke.py [--study studies/sim_grid.yaml]

Two subprocess legs through the real ``repro serve`` CLI:

1. **clean** — start the service on a loopback port, submit the study over
   HTTP, poll the job to completion, then submit the *identical* request
   again and assert it coalesces (HTTP 200, same job id, exactly one
   ``job_submitted`` line in ``jobs.jsonl`` — served from the store, not
   recomputed).  SIGTERM must drain cleanly: exit code 0.
2. **chaos** — fresh store: submit a heavier variant of the study
   (:data:`CHAOS_FIXED`, one case per shard), so the job runs for many
   50 ms polls; wait until it is mid-run, SIGKILL the server, restart
   against the same ``--store`` and assert the job is recovered under its
   original id (``job_requeued`` journaled), resumes from its stored shards
   and finishes with rows **bit-identical** to an uninterrupted in-process
   run of the same document — the CRN invariance contract extended to the
   service layer.

When ``BENCH_JSON_DIR`` is set, each leg's ``jobs.jsonl`` is copied there
and a ``BENCH_service.json`` record (wall times, dedup/recovery verdicts,
journal event counts) is written alongside the perf records.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.study import (  # noqa: E402
    load_study,
    run_study,
    scan_journal,
    study_from_mapping,
)


def load_document(path: str) -> dict:
    """The raw study mapping of a YAML/TOML file (validated before use)."""
    load_study(path)  # fail fast on an invalid document
    text = Path(path).read_text()
    if path.endswith(".toml"):
        import tomllib
        return tomllib.loads(text)
    import yaml
    return yaml.safe_load(text)

POLL_S = 0.2
#: ``fixed:`` override of the chaos leg's document: ``sim_grid`` with 16x
#: the realizations, about 1.4 s of work, so the SIGKILL lands mid-run.
CHAOS_FIXED = {"realizations": 400}
STARTUP_TIMEOUT_S = 30.0
JOB_TIMEOUT_S = 600.0


def start_server(store: Path, label: str, workers: int = 2):
    """Start ``repro serve`` on a free loopback port; return (proc, base_url)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    command = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--store", str(store), "--workers", str(workers)]
    print(f"[service-smoke] {label}: {' '.join(command[3:])}")
    proc = subprocess.Popen(command, cwd=REPO, env=env,
                            stderr=subprocess.PIPE, text=True)
    banner = proc.stderr.readline()  # "serving on http://host:port  (...)"
    if "serving on" not in banner:
        raise RuntimeError(f"unexpected server banner: {banner!r}")
    base = banner.split()[2]
    deadline = time.monotonic() + STARTUP_TIMEOUT_S
    while time.monotonic() < deadline:
        status, _ = request("GET", base + "/healthz")
        if status == 200:
            return proc, base
        time.sleep(POLL_S)
    raise RuntimeError("service did not become healthy")


def request(method: str, url: str, payload: dict | None = None):
    """One JSON request; returns (status, body) and never raises on HTTP."""
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(url, data=data, method=method,
                                 headers={"X-Client-Id": "service-smoke"})
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())
    except (urllib.error.URLError, OSError):
        return 0, {}


def wait_result(base: str, job_id: str, timeout_s: float = JOB_TIMEOUT_S):
    """Poll ``/jobs/{id}/result`` until terminal; return (status, body)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        status, body = request("GET", f"{base}/jobs/{job_id}/result")
        if status not in (0, 202):
            return status, body
        time.sleep(POLL_S)
    raise RuntimeError(f"job {job_id} did not finish in {timeout_s:.0f}s")


def journal_counts(store: Path) -> dict:
    events, skipped = scan_journal(store / "jobs.jsonl")
    counts = {kind: sum(1 for e in events if e["event"] == kind)
              for kind in ("job_submitted", "job_started", "job_finished",
                           "job_requeued", "service_start", "service_stop")}
    counts["skipped"] = skipped
    return counts


def stop(proc: subprocess.Popen, sig: int, timeout_s: float = 60.0) -> int:
    proc.send_signal(sig)
    try:
        code = proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise RuntimeError("server did not stop in time")
    proc.stderr.close()
    return code


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--study",
                        default=str(REPO / "studies/sim_grid.yaml"),
                        help="study document to submit "
                             "(default: sim_grid.yaml)")
    parser.add_argument("--shards", type=int, default=8)
    args = parser.parse_args(argv)

    # The raw document travels in the request body, exactly as a client
    # would send it.
    document = load_document(args.study)
    payload = {"study": document, "shards": args.shards}
    # The chaos leg's job cannot finish between two polls: one case per
    # shard, each heavier.  Its reference rows are an in-process run of the
    # same document, through JSON as the service serves them.
    chaos_document = dict(document, fixed=dict(document.get("fixed") or {},
                                               **CHAOS_FIXED))
    chaos_spec = study_from_mapping(chaos_document)
    chaos_payload = {"study": chaos_document,
                     "shards": chaos_spec.case_count}

    work = Path(tempfile.mkdtemp(prefix="service-smoke-"))
    record: dict = {"study": args.study, "shards": args.shards}
    try:
        # -- Leg 1: clean lifecycle + idempotent dedup + SIGTERM drain ----
        store_a = work / "store-a"
        proc, base = start_server(store_a, "clean")
        t0 = time.perf_counter()
        status, body = request("POST", base + "/jobs", payload)
        if status != 201:
            print(f"[service-smoke] FAIL: submit returned {status}: {body}")
            return 1
        job_id = body["job"]["job"]
        status, body = wait_result(base, job_id)
        record["clean_s"] = time.perf_counter() - t0
        if status != 200:
            print(f"[service-smoke] FAIL: result returned {status}: "
                  f"{body.get('error')}")
            return 1
        reference_rows = body["result"]["rows"]

        # Identical second submission: coalesces onto the finished job and
        # serves from the store — no second computation.
        t0 = time.perf_counter()
        status, body = request("POST", base + "/jobs", payload)
        cached_ok = (status == 200 and not body["created"]
                     and body["job"]["job"] == job_id)
        status, body = request("GET", f"{base}/jobs/{job_id}/result")
        cached_ok = cached_ok and status == 200 \
            and body["result"]["rows"] == reference_rows
        record["cached_resubmit_s"] = time.perf_counter() - t0
        record["cached_resubmit"] = cached_ok
        if not cached_ok:
            print("[service-smoke] FAIL: identical resubmission did not "
                  "coalesce onto the finished job")
            return 1

        code = stop(proc, signal.SIGTERM)
        record["clean_exit"] = code
        counts_a = journal_counts(store_a)
        record["clean_journal"] = counts_a
        if code != 0:
            print(f"[service-smoke] FAIL: SIGTERM drain exited {code}, "
                  "expected 0")
            return 1
        if counts_a["job_submitted"] != 1:
            print(f"[service-smoke] FAIL: expected exactly 1 job_submitted "
                  f"after dedup, journal has {counts_a['job_submitted']}")
            return 1
        if counts_a["service_stop"] != 1 or counts_a["skipped"] != 0:
            print(f"[service-smoke] FAIL: clean journal malformed "
                  f"({counts_a})")
            return 1

        # -- Leg 2: SIGKILL mid-run, restart, resume bit-identically ------
        chaos_rows = json.loads(json.dumps(
            run_study(chaos_spec).table.to_document()["rows"]))
        store_b = work / "store-b"
        proc, base = start_server(store_b, "chaos", workers=1)
        t0 = time.perf_counter()
        status, body = request("POST", base + "/jobs", chaos_payload)
        if status != 201:
            print(f"[service-smoke] FAIL: chaos submit returned {status}")
            return 1
        job_id = body["job"]["job"]
        # Wait until the job is genuinely mid-run (some but not all shards
        # done), then kill -9 — no drain, no checkpointing, torn state.
        deadline = time.monotonic() + JOB_TIMEOUT_S
        while time.monotonic() < deadline:
            status, body = request("GET", f"{base}/jobs/{job_id}")
            view = body.get("job", {})
            if view.get("state") == "running" \
                    and 1 <= view.get("progress_done", 0) \
                    < chaos_payload["shards"]:
                break
            if view.get("state") in ("done", "partial", "failed"):
                break
            time.sleep(0.05)
        record["killed_at_progress"] = view.get("progress_done")
        proc.kill()
        proc.wait(timeout=30)
        proc.stderr.close()
        print(f"[service-smoke] chaos: SIGKILL at progress "
              f"{view.get('progress_done')}/{view.get('progress_total')}")

        proc, base = start_server(store_b, "chaos-restart", workers=1)
        status, body = request("GET", f"{base}/jobs/{job_id}")
        if status != 200:
            print(f"[service-smoke] FAIL: restarted server lost job "
                  f"{job_id} ({status})")
            return 1
        status, body = wait_result(base, job_id)
        record["chaos_s"] = time.perf_counter() - t0
        if status != 200:
            print(f"[service-smoke] FAIL: recovered job finished with "
                  f"{status}: {body.get('error')}")
            return 1
        parity = body["result"]["rows"] == chaos_rows
        record["rows_identical"] = parity
        if not parity:
            print("[service-smoke] FAIL: recovered rows differ from the "
                  "uninterrupted reference")
            return 1
        code = stop(proc, signal.SIGTERM)
        record["chaos_exit"] = code
        counts_b = journal_counts(store_b)
        record["chaos_journal"] = counts_b
        if code != 0:
            print(f"[service-smoke] FAIL: post-recovery drain exited {code}")
            return 1
        if counts_b["job_requeued"] != 1 or counts_b["service_start"] != 2:
            print(f"[service-smoke] FAIL: restart journal missing recovery "
                  f"evidence ({counts_b})")
            return 1

        out_dir = os.environ.get("BENCH_JSON_DIR")
        if out_dir:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            shutil.copy(store_a / "jobs.jsonl", out / "service_jobs.jsonl")
            shutil.copy(store_b / "jobs.jsonl",
                        out / "service_jobs_chaos.jsonl")
            (out / "BENCH_service.json").write_text(
                json.dumps(record, indent=2, sort_keys=True) + "\n")
        print("[service-smoke] PASS: lifecycle + dedup-from-store + clean "
              "drain + kill-9/restart resume with bit-identical rows")
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
