"""Record one trajectory point: end-to-end medians plus traced hot spots.

Run from the root of a checkout, after ``steadiness.py``::

    python3 perfbench/trajectory.py --label <commit> \\
        --steadiness perfbench/steadiness.json

The point holds the machine (``nproc``, Python and numpy versions), each
workload's end-to-end medians and spreads from the steadiness file, every
per-layer metric from one traced run per workload, and each replayed
part's largest self-time shares.  It is written to
``perfbench/trajectory/<label>.json`` so later changes diff against it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402

#: Layers listed per part, largest self time first.
TOP_LAYERS = 6


def hot_spots(parts: list) -> dict:
    shares = {}
    for part in parts:
        traced = part["traced"]
        ranked = sorted(traced["layers"].items(), key=lambda kv: -kv[1][2])
        shares[traced["part"]] = {
            "traced_wall_s": traced["wall_s"],
            "coverage": traced["covered_s"] / traced["wall_s"],
            "self_share": {name: self_s / traced["wall_s"]
                           for name, (_, _, self_s) in ranked[:TOP_LAYERS]},
        }
    return shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True,
                        help="name of the point, e.g. the commit measured")
    parser.add_argument("--steadiness", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=wl.REFERENCE_SEED)
    args = parser.parse_args(argv)
    root = wl.checkout_root()
    wl.require_program(root)
    steadiness = json.loads(args.steadiness.read_text())
    point = {
        "label": args.label,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "run_seconds": steadiness["run_seconds"],
        "workloads": {},
    }
    allowed = os.sched_getaffinity(0)
    for workload in run.WORKLOADS:
        work = root / ".bench_work" / f"trajectory-{time.time_ns()}"
        checks = wl.Checks()
        if workload in wl.ONE_CPU_WORKLOADS:
            wl.pin_to_one_cpu()
        try:
            metrics, parts = run.traced(root, work, workload, args.seed,
                                        checks)
        finally:
            os.sched_setaffinity(0, allowed)
            shutil.rmtree(work, ignore_errors=True)
        metrics["failed_frac"] = checks.failed / max(1, checks.attempted)
        point["workloads"][workload] = {
            "end_to_end": steadiness["workloads"][workload]["summary"],
            "per_layer": metrics,
            "hot_spots": hot_spots(parts),
        }
        print(f"{workload}: traced, coverage {metrics['trace.coverage']:.1%}",
              flush=True)
    out = HERE / "trajectory" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out.relative_to(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
