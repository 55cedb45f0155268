"""The benchmark's printed names and units match BENCHMARK.json exactly.

Fast: nothing here starts the program.  Run from the checkout root with
``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))

import replay  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((PERFBENCH / "layers.json").read_text())


def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert BENCH["paths"] == ["perfbench"]
    assert all(set(w) == {"name", "why"} for w in BENCH["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"}
               for m in BENCH["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"}
               for m in BENCH["per_layer"])
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])


def test_declared_names_and_units_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} \
        == run.PER_LAYER
    assert [m["name"] for m in BENCH["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("units", [run.END_TO_END, run.PER_LAYER])
def test_printed_result_names_every_metric_with_its_unit(units):
    checks = wl.Checks()
    checks.op(True)
    checks.check("table.rows", False, "3 rows")
    metrics = {name: 1.5 for name in units}
    result = json.loads(run.result_line(metrics, units, checks))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (result["correct"], result["attempted"], result["failed"]) \
        == (False, 2, 1)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    lines = run.report_lines(metrics, units, checks)
    for name, unit in units.items():
        assert any(line.split()[:1] == [name] and line.endswith(f" {unit}")
                   for line in lines), name
    assert any(line.startswith("check table.rows") and "FAIL" in line
               for line in lines)


def test_result_line_refuses_a_missing_or_extra_metric():
    metrics = dict.fromkeys(run.END_TO_END, 1.0)
    metrics.pop("setup_s")
    with pytest.raises(SystemExit):
        run.result_line(metrics, run.END_TO_END, wl.Checks())
    metrics.update(setup_s=1.0, bogus=2.0)
    with pytest.raises(SystemExit):
        run.result_line(metrics, run.END_TO_END, wl.Checks())


def test_host_speed_factor_scales_timings_and_rates_only():
    procs = [wl.Proc("a", 0, 1.0, 50.0, Path("a.out")),
             wl.Proc("b", 0, 3.0, 60.0, Path("b.out"))]
    iterations = [(wl.Iteration(procs, 4.0, 3.0), 0.5),
                  (wl.Iteration(procs, 4.0, 3.0), 0.5)]
    setups = [(0.4, 0.5), (0.6, 0.5)]
    raw = run.cli_metrics(iterations, setups, 60.0, speed=run.as_measured)
    assert raw["wall_s"] == 4.0 and raw["setup_s"] == 0.5
    at_reference = run.cli_metrics(iterations, setups, 60.0)
    for name, unit in run.END_TO_END.items():
        power = {"s": 1, "1/s": -1}.get(unit, 0)
        assert at_reference[name] == pytest.approx(raw[name] * 0.5 ** power)


def test_service_jobs_are_scaled_by_their_own_round_factor():
    clients = wl.ServiceClients(0, {}, 3, wl.Checks(), 1)
    clients.rounds = [(2.0, 0.5), (2.0, 1.0)]
    clients.submissions = [
        wl.Submission(0, 1, fresh=True, round=0, status=200, latency_s=0.4),
        wl.Submission(1, 2, fresh=True, round=1, status=200, latency_s=0.3),
        wl.Submission(0, 1, fresh=False, round=1, status=200,
                      latency_s=0.01)]
    setups = [(0.4, 0.5), (0.6, 0.5)]
    raw = run.service_metrics([clients], setups, 50.0, speed=run.as_measured)
    assert raw["job_latency_p90_s"] == 0.4 and raw["jobs_per_s"] == 0.75
    at_reference = run.service_metrics([clients], setups, 50.0)
    assert at_reference["job_latency_p50_s"] == pytest.approx(0.2)
    assert at_reference["job_latency_p90_s"] == pytest.approx(0.3)
    assert at_reference["wall_s"] == pytest.approx(
        3.0 * wl.SERVICE_MIN_FRESH / 2)
    assert at_reference["jobs_per_s"] == pytest.approx(1.0)
    assert at_reference["setup_s"] == pytest.approx(0.25)


def test_client_rounds_stop_once_enough_fresh_jobs_are_done():
    clients = wl.ServiceClients(0, {"axes": {"x": []}}, 3, wl.Checks(), 10,
                                between_rounds=lambda: 0.5)

    def round_trip(sub):
        sub.status, sub.view, sub.document = 200, {"state": "done"}, {}

    clients._round_trip = round_trip
    clients.run()
    fresh_per_round = (wl.SERVICE_CLIENTS * wl.SERVICE_ROUND_SUBMITS
                       * (wl.REPEAT_EVERY - 1) // wl.REPEAT_EVERY)
    assert len(clients.rounds) == -(-10 // fresh_per_round)
    assert all(factor == 0.5 for _, factor in clients.rounds)
    assert {s.round for s in clients.submissions} \
        == set(range(len(clients.rounds)))
    assert wl.SERVICE_ITERATION_FRESH % fresh_per_round == 0


def test_every_self_time_and_call_metric_is_declared():
    for table in (run.SELF_TIME, run.CALLS):
        assert set(table) <= set(run.PER_LAYER)
    assert set(run.EXTRA_SELF.values()) <= set(run.PER_LAYER)


def test_covered_spans_are_the_reported_self_times():
    reported = set(run.SELF_TIME.values()) | set(run.EXTRA_SELF)
    assert run.COVERED_SPANS == reported | {"dist.crn_check"}


def test_coverage_counts_only_reported_self_time():
    tracer = replay.Tracer(covered={"inner"})
    inner = tracer.span("inner", lambda: time.sleep(0.02))

    def outer():
        time.sleep(0.03)
        inner()
        time.sleep(0.03)

    outer = tracer.span("outer", outer)
    t0 = time.perf_counter()
    outer()
    t1 = time.perf_counter()
    covered = tracer.covered_s(t0, t1)
    assert covered == pytest.approx(tracer.layers["inner"][2], abs=1e-4)
    assert covered <= t1 - t0 - 0.06  # outer's own sleeps are not covered


def test_coverage_is_the_union_over_threads():
    tracer = replay.Tracer(covered={"work"})
    work = tracer.span("work", lambda: time.sleep(0.05))
    t0 = time.perf_counter()
    threads = [threading.Thread(target=work) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    t1 = time.perf_counter()
    calls, _, self_s = tracer.layers["work"]
    assert calls == 2
    assert tracer.covered_s(t0, t1) <= min(t1 - t0, self_s)


def test_layer_map_covers_every_per_layer_metric_once():
    metrics = [m for layer in LAYERS["layers"].values()
               for m in layer["metrics"]]
    assert sorted(metrics) == sorted(run.PER_LAYER)
    for name, layer in LAYERS["layers"].items():
        assert set(layer["moves"]) <= set(run.END_TO_END)
        assert layer["moves"] or name == "benchmark"
        assert set(layer["busy_in"]) <= set(run.WORKLOADS)
        assert set(layer["idle_in"]) <= set(run.WORKLOADS)
        assert not set(layer["busy_in"]) & set(layer["idle_in"])


def test_workload_stress_and_bypass_lists_follow_the_layer_map():
    assert set(LAYERS["workloads"]) == set(run.WORKLOADS)
    for workload, entry in LAYERS["workloads"].items():
        stresses = [n for n, layer in LAYERS["layers"].items()
                    if workload in layer["busy_in"] and n != "benchmark"]
        bypasses = [n for n, layer in LAYERS["layers"].items()
                    if workload in layer["idle_in"]]
        assert entry == {"stresses": stresses, "bypasses": bypasses}


def test_wide_sweep_inputs_follow_the_seed():
    first = wl.wide_sweep_document(7)
    assert first == wl.wide_sweep_document(7)
    assert first != wl.wide_sweep_document(8)
    assert wl.case_count(first) == 20000
    isds = first["axes"]["isd_m"]
    assert isds == sorted(set(isds)) and min(isds) > 1800.0
    assert len(set(first["axes"]["threshold_db"])) == wl.WIDE_THRESHOLDS


def test_service_job_seeds_are_distinct_across_clients():
    clients = wl.ServiceClients(0, {}, 3, wl.Checks(), 1)
    seeds = {clients.fresh_seed(c, k) for c in range(wl.SERVICE_CLIENTS)
             for k in range(50)}
    assert len(seeds) == 50 * wl.SERVICE_CLIENTS
    other = wl.ServiceClients(0, {}, 4, wl.Checks(), 1)
    assert other.fresh_seed(0, 0) != clients.fresh_seed(0, 0)


@pytest.mark.parametrize("a, b, same", [
    ("3", "3", True), ("3", "4", False), ("3", "3.0", False),
    ("1.0", "1.0000000001", True), ("1.0", "1.00001", False),
    ("nan", "nan", True), ("nan", "1.0", False), ("madrid", "madrid", True),
    ("madrid", "lyon", False),
])
def test_reference_cells_compare_nan_aware(a, b, same):
    assert wl.same_cell(a, b) is same


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]
    assert wl.percentile(values, 0.5) == 50.0
    assert wl.percentile(values, 0.9) == 90.0
    assert wl.percentile([0.5, 2.0], 0.5) == 0.5
    assert wl.percentile([0.5, 2.0], 0.9) == 2.0
    assert wl.percentile([], 0.9) == 0.0
