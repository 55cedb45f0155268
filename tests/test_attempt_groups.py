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
  the case cap, one shard per attempt under a ``cancel`` hook;
* faults under grouping: a failed group charges no shard and its members
  re-run alone under the same attempt numbers, so ``shard_attempts``,
  quarantine and persistence match one attempt per shard.
"""

import numpy as np
import pytest

import repro.study.runner as runner
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

    def test_cancel_hook_keeps_one_shard_per_attempt(self, engine_calls,
                                                     tmp_path):
        journal = tmp_path / "run.jsonl"
        run_study(parse_study(MC_TEXT), shards=4, journal=journal,
                  cancel=lambda: False)
        assert engine_calls == [2, 2, 2, 2]
        assert all(event["group"] == event["shard"]
                   for event in journal_events(journal, "finish"))

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
