"""Benchmark-suite configuration.

Each ``bench_*`` module regenerates one table or figure of the paper (see
DESIGN.md section 5) and asserts the reproduced values, so the benchmark run
doubles as an end-to-end verification pass:

    pytest benchmarks/ --benchmark-only

Slow experiments use ``benchmark.pedantic`` with a single round; fast kernels
let pytest-benchmark calibrate itself.

When ``BENCH_JSON_DIR`` is set, speedup benchmarks additionally emit
``BENCH_<name>.json`` files (wall times and speedup ratios) through the
``bench_json`` fixture; CI uploads that directory as a workflow artifact so
the performance trajectory is tracked across PRs.

The scalar engines and step-loop kernels the speedup gates measure against
are test oracles in ``tests/oracles/``; the repository's ``tests/``
directory is put on ``sys.path`` here so the benchmarks import them as
``oracles.<module>``.
"""

import json
import os
import sys
from pathlib import Path

import pytest

_TESTS_DIR = str(Path(__file__).resolve().parents[1] / "tests")
if _TESTS_DIR not in sys.path:
    sys.path.insert(0, _TESTS_DIR)


@pytest.fixture
def bench_json():
    """Writer for ``$BENCH_JSON_DIR/BENCH_<name>.json`` perf records.

    A no-op when ``BENCH_JSON_DIR`` is unset, so local benchmark runs need no
    extra setup.
    """
    def write(name: str, payload: dict) -> None:
        out_dir = os.environ.get("BENCH_JSON_DIR")
        if not out_dir:
            return
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        with open(path / f"BENCH_{name}.json", "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)

    return write
