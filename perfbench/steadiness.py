"""Repeat the benchmark over seeds and report each end-to-end spread.

Run from the root of a checkout::

    python3 perfbench/steadiness.py --runs 10 --out perfbench/steadiness.json

For every workload and end-to-end metric it prints the median of the runs
and the interquartile spread ``(q3 - q1) / median`` (quartiles from
``statistics.quantiles(values, n=4)``), next to the metric's bound from
``BENCHMARK.json``.  Seeds are ``first-seed .. first-seed + runs - 1``;
each run's whole duration is kept as ``duration_s`` and the median of
its host-speed factors as ``host_factor``.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: all)")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the runs and spreads as JSON")
    args = parser.parse_args(argv)
    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = ([w.strip() for w in args.workloads.split(",")]
             if args.workloads else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"python": platform.python_version(),
              "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed",
                 str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"], capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output",
                      file=sys.stderr)
            factor = re.search(r"^# host speed factor median ([0-9.]+)",
                               proc.stdout, flags=re.M)
            runs.append({"seed": seed, "correct": result["correct"],
                         "duration_s": time.perf_counter() - t0,
                         "host_factor": float(factor.group(1)),
                         **{k: v["value"]
                            for k, v in result["metrics"].items()}})
        summary = {}
        for metric, bound in bounds.items():
            values = [run[metric] for run in runs]
            summary[metric] = {"median": statistics.median(values),
                               "spread": spread(values), "bound": bound}
            print(f"{workload:<18} {metric:<20} median "
                  f"{summary[metric]['median']:<10.5g} spread "
                  f"{summary[metric]['spread']:6.2%}  bound {bound:.0%}",
                  flush=True)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
