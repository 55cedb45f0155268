"""Grouped inline attempts: one engine call per run, per-shard semantics.

An inline run batches consecutive pending shards into one attempt — one
``run_cases`` call — while the group stays within the runner's case cap,
and splits the rows back per shard.  This module pins what makes that
safe and invisible:

* the partition property: for every engine, ``run_cases`` on a
  concatenation of case lists equals, bit for bit, the concatenation of
  ``run_cases`` on the parts (over the shard layouts of the invariance
  tests and seeded random cuts);
* the grouping rules: one engine call for a small study, singletons past
  the case cap, and under a ``cancel`` hook groups sized to the
  supervisor's poll interval at the latest per-case wall (at least one
  shard) — a first attempt of one shard for a shape the store has not
  measured yet, one group for a shape it has;
* faults under grouping: a failed group charges no shard and its members
  re-run alone under the same attempt numbers, so ``shard_attempts``,
  quarantine and persistence match one attempt per shard;
* one supervisor loop: pool attempts stay single shards, a failure is
  charged alike at ``jobs=1`` and ``jobs=2``, and an inline run never
  imports :mod:`concurrent.futures`;
* the ``mc`` adapter's batching: one scenario hash per distinct scenario,
  one ``ar1_min_scan`` kernel call per (trials, seed) stream, and rows
  equal, bit for bit, to evaluating every case on its own.
"""

import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro.study.runner as runner
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, FaultSpec
from repro.study import (
    StudyStore,
    parse_study,
    read_journal,
    run_study,
    shard_ranges,
)
from repro.study.engines import STUDY_ENGINES, run_cases

#: One small study per engine: every axis varies something the engine
#: batches over, so a concatenated call really mixes lanes.
ENGINE_STUDIES = {
    "radio": """
name: p-radio
engine: radio
axes:
  isd_m: [1500.0, 2000.0, 2600.0]
  n_repeaters: [0, 3]
  threshold_db: [20.0, 29.0]
fixed:
  resolution_m: 25.0
""",
    "solar": """
name: p-solar
engine: solar
seed: 2022
axes:
  location: [madrid, berlin]
  pv_peak_w: [360.0, 540.0]
  battery_wh: [720.0, 1440.0]
fixed:
  days: 60
""",
    "mc": """
name: p-mc
engine: mc
seed: 7
axes:
  sigma_db: [2.0, 4.0]
  isd_m: [2000.0, 2400.0]
  n_repeaters: [0, 8]
fixed:
  trials: 12
  resolution_m: 50.0
""",
    "sim": """
name: p-sim
engine: sim
seed: 3
axes:
  headway_s: [450.0, 900.0]
  trains_per_day: [76.0, 152.0]
  policy: [continuous, sleep, solar]
fixed:
  isd_m: 2400.0
  realizations: 3
""",
    "network": """
name: p-network
engine: network
axes:
  demand_scale: [0.5, 2.0]
  energy_budget_w_per_km: [0.0, 125.0, 175.0]
  technologies: ["conventional,repeater,mobile_relay", "conventional,repeater"]
fixed:
  graph: national
  segments: 200
""",
}

MC_TEXT = ENGINE_STUDIES["mc"]


def bits(row: dict) -> list:
    """A row as exactly comparable values: ``repr`` round-trips every
    float (and tells ``-0.0`` from ``0.0``), NaN compares equal to NaN."""
    return [(name, type(value), repr(value)) for name, value in row.items()]


def partitions(n: int) -> list[list[tuple[int, int]]]:
    """The shard layouts of the invariance tests plus seeded random cuts."""
    layouts = [shard_ranges(n, k) for k in (1, 2, 3, 4, n)]
    rng = np.random.default_rng(20221016)
    for _ in range(2):
        cuts = sorted(rng.choice(np.arange(1, n), size=3, replace=False))
        bounds = [0, *map(int, cuts), n]
        layouts.append(list(zip(bounds[:-1], bounds[1:])))
    return layouts


class TestPartitionProperty:
    def test_every_engine_has_a_study(self):
        assert set(ENGINE_STUDIES) == set(STUDY_ENGINES)

    @pytest.mark.parametrize("engine", sorted(ENGINE_STUDIES))
    def test_concatenation_equals_concatenated_parts(self, engine):
        spec = parse_study(ENGINE_STUDIES[engine])
        cases = spec.cases()
        seeds = [spec.case_seed(i) for i in range(len(cases))]
        whole = [bits(row) for row in run_cases(engine, cases, seeds)]
        for layout in partitions(len(cases)):
            parts = [bits(row)
                     for start, stop in layout
                     for row in run_cases(engine, cases[start:stop],
                                          seeds[start:stop])]
            assert parts == whole, layout


# -- grouping rules -----------------------------------------------------------


@pytest.fixture
def engine_calls(monkeypatch):
    """Record the case count of every engine call the runner makes."""
    calls = []

    def spy(engine, cases, seeds, context=None):
        calls.append(len(cases))
        return run_cases(engine, cases, seeds, context=context)

    monkeypatch.setattr(runner, "run_cases", spy)
    return calls


def journal_events(path, kind):
    return [event for event in read_journal(path) if event["event"] == kind]


class TestGrouping:
    def test_small_study_is_one_engine_call(self, engine_calls, tmp_path):
        journal = tmp_path / "run.jsonl"
        spec = parse_study(MC_TEXT)
        report = run_study(spec, shards=4, journal=journal)
        assert engine_calls == [8]
        assert report.computed_shards == 4
        finishes = journal_events(journal, "finish")
        assert [event["shard"] for event in finishes] == [0, 1, 2, 3]
        assert {event["group"] for event in finishes} == {0}
        assert {event["group"] for event in
                journal_events(journal, "submit")} == {0}

    def test_shards_past_the_case_cap_stay_singletons(self, engine_calls,
                                                      monkeypatch):
        monkeypatch.setattr(runner, "_GROUP_CASES", 5)
        run_study(parse_study(MC_TEXT), shards=4)
        # 2-case shards: two fit under a cap of 5, a third would not.
        assert engine_calls == [4, 4]

    def test_cancel_hook_without_poll_budget_runs_shards_alone(
            self, engine_calls, monkeypatch, tmp_path, clean_table):
        monkeypatch.setattr(runner, "_POLL_S", 0.0)
        journal = tmp_path / "run.jsonl"
        report = run_study(parse_study(MC_TEXT), shards=4, journal=journal,
                           cancel=lambda: False)
        assert engine_calls == [2, 2, 2, 2]
        assert all(event["group"] == event["shard"]
                   for event in journal_events(journal, "finish"))
        assert report.table.long() == clean_table

    def test_cancel_hook_groups_after_a_one_shard_probe(
            self, engine_calls, monkeypatch, tmp_path, clean_table):
        monkeypatch.setattr(runner, "_POLL_S", 1e9)
        journal = tmp_path / "run.jsonl"
        report = run_study(parse_study(MC_TEXT), shards=4, journal=journal,
                           cancel=lambda: False)
        # The first attempt is one shard; its per-case wall fits every
        # other case into the next group, still capped by _GROUP_CASES.
        assert engine_calls == [2, 6]
        assert [event["group"] for event in
                journal_events(journal, "finish")] == [0, 1, 1, 1]
        assert report.table.long() == clean_table

    def test_cancel_hook_polls_between_groups(self, engine_calls,
                                              monkeypatch):
        monkeypatch.setattr(runner, "_POLL_S", 1e9)
        polls = []

        def cancel():
            polls.append(len(engine_calls))
            return len(engine_calls) == 1

        report = run_study(parse_study(MC_TEXT), shards=4, cancel=cancel)
        assert report.cancelled and polls == [0, 1]
        assert report.computed_ranges == ((0, 2),)

    def test_a_measured_shape_skips_the_probe(self, engine_calls,
                                              monkeypatch, tmp_path):
        # The store remembers the pace of the spec's shape (the spec
        # without its seed): a later run of that shape on the same store
        # is one group; another store, or another shape, probes again.
        monkeypatch.setattr(runner, "_POLL_S", 1e9)
        spec = parse_study(MC_TEXT)
        store = StudyStore(cache_dir=tmp_path / "a")

        def run(spec, store):
            engine_calls.clear()
            report = run_study(spec, shards=4, store=store,
                               cancel=lambda: False)
            assert not report.partial
            return list(engine_calls)

        assert run(spec, store) == [2, 6]
        reseeded = replace(spec, seed=spec.seed + 1)
        assert run(reseeded, store) == [8]
        assert run(replace(spec, name="renamed", seed=99), store) == [8]
        assert run(reseeded, StudyStore(cache_dir=tmp_path / "b")) == [2, 6]
        assert run(spec.with_overrides(trials=13), store) == [2, 6]

    def test_the_pace_memo_is_bounded(self, engine_calls, monkeypatch,
                                      tmp_path):
        monkeypatch.setattr(runner, "_POLL_S", 1e9)
        monkeypatch.setattr(runner, "_PACE_SHAPES", 2)
        spec = parse_study(MC_TEXT)
        store = StudyStore(cache_dir=tmp_path / "store")
        shapes = [spec.with_overrides(trials=trials) for trials in (5, 6, 7)]
        for shape in shapes:
            run_study(shape, shards=4, store=store, cancel=lambda: False)
        assert len(runner._PACES[store]) == 1
        # The first shape was forgotten: a fresh seed of it probes again.
        engine_calls.clear()
        run_study(replace(shapes[0], seed=99), shards=4, store=store,
                  cancel=lambda: False)
        assert engine_calls == [2, 6]

    def test_a_memo_cleared_by_another_thread_does_not_fail_the_run(
            self, engine_calls, monkeypatch, tmp_path, clean_table):
        # Service worker threads share a store's memo, and a thread that
        # fills it clears it: here every membership test and every write
        # is followed at once by such a clear, and the engine call clears
        # it too.  The run reads the pace it found and finishes.
        class ClearedByAnotherThread(dict):
            def __contains__(self, key):
                found = super().__contains__(key)
                self.clear()
                return found

            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                self.clear()

        monkeypatch.setattr(runner, "_POLL_S", 1e9)
        spec = parse_study(MC_TEXT)
        store = StudyStore(cache_dir=tmp_path / "store")
        paces = ClearedByAnotherThread({runner._shape(spec): 1e-9})
        runner._PACES[store] = paces
        spy = runner.run_cases

        def engine(*args, **kwargs):
            paces.clear()
            return spy(*args, **kwargs)

        monkeypatch.setattr(runner, "run_cases", engine)
        report = run_study(spec, shards=4, store=store, cancel=lambda: False)
        assert engine_calls == [8] and report.table.long() == clean_table
        # The pace written after that run was cleared too: a probe again.
        engine_calls.clear()
        report = run_study(replace(spec, seed=8), shards=4, store=store,
                           cancel=lambda: False)
        assert engine_calls == [2, 6] and not report.partial

    def test_a_slow_pace_keeps_later_runs_shard_by_shard(
            self, engine_calls, monkeypatch, tmp_path):
        monkeypatch.setattr(runner, "_POLL_S", 0.0)
        spec = parse_study(MC_TEXT)
        store = StudyStore(cache_dir=tmp_path / "store")
        run_study(spec, shards=4, store=store, cancel=lambda: False)
        engine_calls.clear()
        run_study(replace(spec, seed=8), shards=4, store=store,
                  cancel=lambda: False)
        assert engine_calls == [2, 2, 2, 2]

    def test_wall_time_outside_the_attempt_does_not_shrink_groups(
            self, engine_calls, monkeypatch, tmp_path, clean_table):
        # Each engine call lets an hour of wall pass that this thread does
        # not run (the CPU serving another job).  A wall pace would leave
        # every later group at one shard; the attempt's CPU pace groups
        # the rest of the run and the next job of the shape.
        monkeypatch.setattr(runner, "_POLL_S", 10.0)
        skipped = [0.0]
        monotonic = time.monotonic
        monkeypatch.setattr(time, "monotonic",
                            lambda: monotonic() + skipped[0])
        spy = runner.run_cases

        def engine(*args, **kwargs):
            skipped[0] += 3600.0
            return spy(*args, **kwargs)

        monkeypatch.setattr(runner, "run_cases", engine)
        spec = parse_study(MC_TEXT)
        store = StudyStore(cache_dir=tmp_path / "store")
        report = run_study(spec, shards=4, store=store, cancel=lambda: False)
        assert engine_calls == [2, 6] and report.table.long() == clean_table
        engine_calls.clear()
        report = run_study(replace(spec, seed=8), shards=4, store=store,
                           cancel=lambda: False)
        assert engine_calls == [8] and not report.partial

    def test_grouped_walls_are_case_shares(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        run_study(parse_study(MC_TEXT), shards=4, journal=journal)
        walls = [event["wall_s"] for event in journal_events(journal,
                                                             "finish")]
        # Equal shard sizes: equal case shares of the one attempt.
        assert len(set(walls)) == 1 and walls[0] > 0

    def test_grouped_run_equals_per_shard_run(self):
        spec = parse_study(ENGINE_STUDIES["solar"])
        grouped = run_study(spec, shards=5).table.long()
        single = run_study(spec, shards=5, cancel=lambda: False).table.long()
        assert grouped == single


# -- faults under grouping ----------------------------------------------------


def fault_context(*faults):
    return {"fault_plan": FaultPlan(faults=faults).to_context()}


@pytest.fixture(scope="module")
def clean_table():
    return run_study(parse_study(MC_TEXT), shards=4).table.long()


class TestFaultsUnderGrouping:
    def test_raise_on_a_middle_member(self, clean_table, tmp_path):
        journal = tmp_path / "run.jsonl"
        report = run_study(parse_study(MC_TEXT), shards=4, retries=1,
                           backoff_base=0.0, journal=journal,
                           context=fault_context(FaultSpec(shard=2)))
        assert report.table.long() == clean_table
        # One attempt per shard, as without grouping, plus shard 2's retry.
        assert report.shard_attempts == {0: 1, 1: 1, 2: 2, 3: 1}
        assert report.retried == 1 and not report.failed_shards
        split, = journal_events(journal, "group_split")
        assert split["group"] == 0 and split["shards"] == [0, 1, 2, 3]
        assert "FaultInjected" in split["error"]
        retry, = journal_events(journal, "retry")
        assert (retry["shard"], retry["attempt"]) == (2, 1)
        # After the split, every member ran alone under attempt 1.
        submits = [(e["shard"], e["attempt"], e["group"])
                   for e in journal_events(journal, "submit")]
        assert submits == [(0, 1, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0),
                           (0, 1, 0), (1, 1, 1), (2, 1, 2), (3, 1, 3),
                           (2, 2, 2)]

    def test_raise_inside_a_cancel_hook_group(self, clean_table,
                                              monkeypatch, tmp_path):
        def run(poll_s, journal):
            monkeypatch.setattr(runner, "_POLL_S", poll_s)
            return run_study(parse_study(MC_TEXT), shards=4, retries=1,
                             backoff_base=0.0, journal=journal,
                             cancel=lambda: False,
                             context=fault_context(FaultSpec(shard=2)))

        grouped = run(1e9, tmp_path / "grouped.jsonl")
        alone = run(0.0, tmp_path / "alone.jsonl")
        assert grouped.table.long() == alone.table.long() == clean_table
        # The split charges no shard: attempts match a per-shard run.
        assert grouped.shard_attempts == alone.shard_attempts \
            == {0: 1, 1: 1, 2: 2, 3: 1}
        split, = journal_events(tmp_path / "grouped.jsonl", "group_split")
        assert split["group"] == 1 and split["shards"] == [1, 2, 3]
        assert not journal_events(tmp_path / "alone.jsonl", "group_split")

    def test_keep_going_quarantines_only_the_faulting_member(self, tmp_path):
        report = run_study(parse_study(MC_TEXT), shards=4, retries=1,
                           backoff_base=0.0, keep_going=True,
                           context=fault_context(
                               FaultSpec(shard=1, attempt=1),
                               FaultSpec(shard=1, attempt=2)))
        failed, = report.failed_shards
        assert (failed.index, failed.attempts, failed.kind) == (1, 2, "error")
        assert report.shard_attempts == {0: 1, 1: 2, 2: 1, 3: 1}
        assert report.computed_ranges == ((0, 2), (4, 6), (6, 8))
        assert report.table.columns["case"] == [0, 1, 4, 5, 6, 7]

    def test_interrupt_from_progress_mid_group(self, tmp_path):
        def interrupt(done, total, label):
            if done == 2:
                raise KeyboardInterrupt

        spec = parse_study(MC_TEXT)
        store_dir = tmp_path / "store"
        report = run_study(spec, shards=4, progress=interrupt,
                           store=StudyStore(cache_dir=store_dir))
        assert report.interrupted
        assert report.computed_ranges == ((0, 2), (2, 4))
        # Exactly the recorded shards are on disk, nothing of the rest.
        store = StudyStore(cache_dir=store_dir)
        assert [store.get_shard(spec, start, stop) is not None
                for start, stop in shard_ranges(8, 4)] == [True, True,
                                                          False, False]
        finished = journal_events(store_dir / "run.jsonl", "finish")
        assert [event["shard"] for event in finished] == [0, 1]


# -- one supervisor loop ------------------------------------------------------


class TestOneSupervisorLoop:
    """Inline and pool attempts run through the same loop: pool attempts
    stay one shard, and a failure is charged the same way on both."""

    def test_pool_attempts_are_single_shards(self, tmp_path, clean_table):
        journal = tmp_path / "run.jsonl"
        report = run_study(parse_study(MC_TEXT), jobs=2, shards=4,
                           journal=journal)
        submits = journal_events(journal, "submit")
        assert sorted(event["shard"] for event in submits) == [0, 1, 2, 3]
        assert all(event["group"] == event["shard"] for event in submits)
        assert report.table.long() == clean_table

    def test_a_raise_is_charged_alike_inline_and_on_a_pool(self, tmp_path,
                                                           clean_table):
        def run(jobs):
            journal = tmp_path / f"jobs-{jobs}.jsonl"
            report = run_study(parse_study(MC_TEXT), jobs=jobs, shards=4,
                               retries=2, backoff_base=0.0, journal=journal,
                               context=fault_context(FaultSpec(shard=1)))
            # Submits differ by design: inline, the failed 4-shard group
            # adds submits and a group_split before its members run alone.
            events = sorted((event["event"], event["shard"], event["attempt"])
                            for event in read_journal(journal)
                            if event["event"] in ("retry", "finish"))
            return report, events

        inline, inline_events = run(1)
        pool, pool_events = run(2)
        assert inline_events == pool_events
        assert ("retry", 1, 1) in inline_events
        assert inline.shard_attempts == pool.shard_attempts \
            == {0: 1, 1: 2, 2: 1, 3: 1}
        assert inline.table.long() == pool.table.long() == clean_table

    def test_an_inline_run_leaves_the_pool_unimported(self):
        # Importing concurrent.futures costs about 10 ms of startup.
        code = ("import sys\n"
                "from repro.study import parse_study, run_study\n"
                "report = run_study(parse_study(sys.argv[1]), shards=4)\n"
                "assert report.computed_shards == 4\n"
                "print('concurrent.futures' in sys.modules)\n")
        src = Path(runner.__file__).resolve().parents[2]
        proc = subprocess.run([sys.executable, "-c", code, MC_TEXT],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]


class TestCaseDecoding:
    """A group decodes each run of touching members with one
    ``StudySpec.cases`` call, and a round-robin slice group decodes only
    its own shards."""

    @pytest.fixture
    def decoded(self, monkeypatch):
        from repro.study.spec import StudySpec

        ranges = []
        cases = StudySpec.cases

        def spy(self, start=None, stop=None):
            ranges.append((start, stop))
            return cases(self, start, stop)

        monkeypatch.setattr(StudySpec, "cases", spy)
        return ranges

    def test_a_contiguous_group_decodes_once(self, decoded, engine_calls,
                                             clean_table):
        report = run_study(parse_study(MC_TEXT), shards=4)
        assert engine_calls == [8] and decoded == [(0, 8)]
        assert report.table.long() == clean_table

    def test_a_slice_group_decodes_only_its_members(self, decoded,
                                                    engine_calls):
        spec = parse_study(MC_TEXT)
        report = run_study(spec, shards=8, only_shards=[0, 3, 6])
        assert engine_calls == [3]
        assert decoded == [(0, 1), (3, 4), (6, 7)]
        whole = run_study(spec, shards=8).table.columns
        assert report.table.columns["case"] == [0, 3, 6]
        for name, values in report.table.columns.items():
            assert values == [whole[name][i] for i in (0, 3, 6)], name


# -- mc adapter batching ------------------------------------------------------


#: Ragged grids (two resolutions), a threshold axis and sigma 0.0 (the
#: engine's no-shadowing branch): every scenario repeats across the
#: threshold and sigma axes.
MC_BATCH_TEXT = """
name: p-mc-batch
engine: mc
seed: 11
seed_mode: {seed_mode}
axes:
  threshold_db: [20.0, 29.0, 33.0]
  resolution_m: [25.0, 40.0]
  sigma_db: [0.0, 3.0]
  isd_m: [1800.0, 2400.0]
fixed:
  n_repeaters: 4
  trials: 16
"""

def per_case_mc(cases, seeds):
    """The ``mc`` adapter as a per-case loop: one scenario, one profile
    and one ``outage_matrix`` call per case."""
    from oracles.radio import scenario_profile
    from repro.optimize.mc import outage_matrix
    from repro.propagation.fading import LogNormalShadowing
    from repro.study.engines import _radio_scenario

    adapter = STUDY_ENGINES["mc"]
    rows = []
    for case, seed in zip(cases, seeds):
        case = adapter.resolve(case)
        matrix = outage_matrix(
            [scenario_profile(_radio_scenario(case))],
            LogNormalShadowing(sigma_db=float(case["sigma_db"]),
                               decorrelation_m=float(case["decorrelation_m"])),
            threshold_db=float(case["threshold_db"]),
            trials=int(case["trials"]), seed=seed)
        ci_low, ci_high = matrix.ci95()
        rows.append({
            "outage_probability": float(matrix.outage_probability[0]),
            "outage_ci95_low": float(ci_low[0]),
            "outage_ci95_high": float(ci_high[0]),
            "median_min_snr_db": float(matrix.quantile(0.5)[0]),
        })
    return rows


@pytest.fixture
def mc_spies(monkeypatch):
    """Count scenario hashes and record every ``ar1_min_scan`` call the
    Monte-Carlo engine makes as ``(trials, lanes)``."""
    import repro.optimize.mc as mc
    from repro.scenario.spec import Scenario

    hashes, scans = [], []
    content_hash = Scenario.content_hash.fget

    def counted_hash(self):
        hashes.append(self)
        return content_hash(self)

    kernel = mc.ar1_min_scan

    def recorded(snr, rho, innovation, z, first_scale, sizes):
        scans.append((z.shape[0], snr.shape[0]))
        return kernel(snr, rho, innovation, z, first_scale, sizes)

    monkeypatch.setattr(Scenario, "content_hash", property(counted_hash))
    monkeypatch.setattr(mc, "ar1_min_scan", recorded)
    return hashes, scans


class TestMcBatching:
    @pytest.mark.parametrize("seed_mode", ["shared", "per-case"])
    def test_rows_equal_the_per_case_loop(self, seed_mode):
        spec = parse_study(MC_BATCH_TEXT.format(seed_mode=seed_mode))
        cases = spec.cases()
        seeds = [spec.case_seed(i) for i in range(len(cases))]
        oracle = [bits(row) for row in per_case_mc(cases, seeds)]
        assert [bits(row) for row in run_cases("mc", cases, seeds)] == oracle
        order = np.random.default_rng(5).permutation(len(cases))
        shuffled = run_cases("mc", [cases[i] for i in order],
                             [seeds[i] for i in order])
        assert [bits(row) for row in shuffled] == [oracle[i] for i in order]

    @pytest.mark.parametrize("seed_mode", ["shared", "per-case"])
    def test_one_hash_per_scenario_one_scan_per_stream(self, seed_mode,
                                                       mc_spies):
        hashes, scans = mc_spies
        spec = parse_study(MC_BATCH_TEXT.format(seed_mode=seed_mode))
        cases = [STUDY_ENGINES["mc"].resolve(case) for case in spec.cases()]
        seeds = [spec.case_seed(i) for i in range(len(cases))]
        run_cases("mc", cases, seeds)
        # Only the resolution and ISD axes shape the scenario.
        scenarios = {(case["resolution_m"], case["isd_m"]) for case in cases}
        assert len(hashes) == len(scenarios) == 4
        # One kernel call per (trials, seed) stream that shadows at all;
        # its lanes are the stream's distinct (scenario, sigma > 0) pairs.
        shadowed = [(case, seed) for case, seed in zip(cases, seeds)
                    if case["sigma_db"] > 0.0]
        streams = {(case["trials"], seed) for case, seed in shadowed}
        lanes = {(case["resolution_m"], case["isd_m"], case["sigma_db"],
                  case["trials"], seed) for case, seed in shadowed}
        assert len(scans) == len(streams) \
            == (1 if seed_mode == "shared" else len(shadowed))
        assert sum(width for _, width in scans) == len(lanes)
        assert {trials for trials, _ in scans} == {16}

    def test_the_spied_binding_is_the_one_called(self, monkeypatch):
        # A spy on ``repro.optimize.mc.ar1_min_scan`` intercepts the scan:
        # shifting its minima 100 dB down turns every shadowed row into a
        # certain outage.
        import repro.optimize.mc as mc

        kernel = mc.ar1_min_scan
        spec = parse_study(MC_TEXT)
        cases = spec.cases(0, 2)
        clean = run_cases("mc", cases, [7, 7])
        monkeypatch.setattr(mc, "ar1_min_scan",
                            lambda *args: kernel(*args) - 100.0)
        shifted = run_cases("mc", cases, [7, 7])
        assert [row["outage_probability"] for row in shifted] == [1.0, 1.0]
        assert shifted != clean

    @pytest.mark.parametrize("trials", [12.7, 0, -3, float("nan"), "many"])
    def test_invalid_trials_are_rejected(self, trials):
        spec = parse_study(MC_TEXT)
        with pytest.raises(ConfigurationError, match="trials"):
            run_cases("mc", [dict(case, trials=trials)
                             for case in spec.cases(0, 2)], [7, 7])

    def test_integral_float_trials_run_as_int(self):
        spec = parse_study(MC_TEXT)
        cases = spec.cases(0, 2)
        assert run_cases("mc", [dict(case, trials=12.0) for case in cases],
                         [7, 7]) == run_cases("mc", cases, [7, 7])
