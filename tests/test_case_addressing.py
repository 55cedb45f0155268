"""O(shard) study execution: ranged case addressing and per-row work.

Pins the contracts that let a shard worker and a merge do work
proportional to their own rows:

* ``StudySpec.case(i)`` and ``cases(start, stop)`` decode exactly the
  cases of the full ``cases()`` expansion (the oracle), for any axis
  shape and value type;
* ``_run_shards`` and a one-shard ``run_study`` slice never expand the
  grid, so a 1 000-case shard of a 10^6-case study runs as fast as a
  1 000-case study;
* the radio adapter evaluates each distinct scenario once and fans the
  rows out per case, bit-identical to evaluating case by case;
* the streamed long CSV is byte-identical to ``series_to_csv(long())``;
* the spec hash is computed once per instance and survives pickling;
* the merge reads each worker bundle once.
"""

import math
import pickle
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import repro.radio.batch as radio_batch
from repro.reporting.series import series_to_csv
from repro.scenario.cache import ArrayCache
from repro.study import (
    StudySpec,
    StudyStore,
    StudyTable,
    load_study,
    merge_manifests,
    parse_study,
    run_shard_slice,
    run_study,
)
from repro.study.engines import run_cases
from repro.study.runner import _run_shards

STUDIES_DIR = Path(__file__).resolve().parents[1] / "studies"

#: Radio parameters a generated spec may sweep (any scalar is accepted at
#: load time; these specs are expanded, never run).
RADIO_PARAMS = ("isd_m", "n_repeaters", "spacing_m", "resolution_m",
                "hp_eirp_dbm", "threshold_db")

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5),
    st.floats(allow_nan=False, width=32), st.text(max_size=3))


@st.composite
def specs(draw):
    names = draw(st.lists(st.sampled_from(RADIO_PARAMS), min_size=1,
                          max_size=4, unique=True))
    axes = tuple((name, tuple(draw(st.lists(SCALARS, min_size=1,
                                            max_size=4))))
                 for name in names)
    fixed = () if "isd_m" in names else (("isd_m", 2000.0),)
    return StudySpec(name="prop", engine="radio", axes=axes, fixed=fixed)


def assert_same_cases(actual, expected):
    """Equal case lists holding the very same value objects (so ``1`` vs
    ``True`` or ``0.0`` vs ``-0.0`` cannot pass as equal)."""
    assert len(actual) == len(expected)
    for a, b in zip(actual, expected):
        assert list(a) == list(b)
        assert all(a[name] is b[name] for name in a)


class TestRangedCases:
    @seed(20221016)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_case_and_ranges_match_the_full_expansion(self, data):
        spec = data.draw(specs())
        full = spec.cases()
        n = len(full)
        assert n == spec.case_count
        index = data.draw(st.integers(-n, n - 1))
        assert_same_cases([spec.case(index)], [full[index]])
        bound = st.one_of(st.none(), st.integers(-n - 2, n + 2))
        start, stop = data.draw(bound), data.draw(bound)
        assert_same_cases(spec.cases(start, stop), full[start:stop])

    def test_every_case_of_a_mixed_spec(self):
        spec = StudySpec(name="mixed", engine="radio", axes=(
            ("isd_m", (2000.0, "a,b", None)), ("threshold_db", (True,)),
            ("hp_eirp_dbm", (1, 2.5))))
        full = spec.cases()
        assert_same_cases([spec.case(i) for i in range(len(full))], full)
        assert_same_cases(spec.cases(0, len(full)), full)
        assert spec.cases(4, 4) == [] and spec.cases(5, 2) == []

    @pytest.mark.parametrize("index", [6, -7, 100])
    def test_case_out_of_range(self, index):
        spec = StudySpec(name="six", engine="radio",
                         axes=(("isd_m", (1.0, 2.0, 3.0)),
                               ("threshold_db", (1.0, 2.0))))
        with pytest.raises(IndexError):
            spec.case(index)
        with pytest.raises(IndexError):
            spec.axis_columns([0, abs(index)])


# -- no shard expands the grid ------------------------------------------------


def million_case_spec() -> StudySpec:
    return StudySpec(
        name="million", engine="radio",
        axes=(("isd_m", tuple(2000.0 + i for i in range(1000))),
              ("threshold_db", tuple(20.0 + i / 100 for i in range(1000)))),
        fixed=(("resolution_m", 100.0),))


@pytest.fixture
def full_expansions(monkeypatch):
    """Record every call of ``StudySpec.cases`` that expands the grid."""
    calls = []
    original = StudySpec.cases

    def spy(self, start=None, stop=None):
        if start is None and stop is None:
            calls.append(self.name)
        return original(self, start, stop)

    monkeypatch.setattr(StudySpec, "cases", spy)
    return calls


class TestShardsStayLocal:
    def test_run_shard_decodes_only_its_range(self, full_expansions):
        spec = million_case_spec()
        shard, = _run_shards(spec, {}, [(500, 500_000, 501_000, 1, {})])
        assert shard["case"] == list(range(500_000, 501_000))
        assert full_expansions == []

    def test_known_rows_skip_the_engine(self, full_expansions):
        spec = million_case_spec()
        fresh, = _run_shards(spec, {}, [(0, 10, 20, 1, {})])
        known = {i: {m: fresh[m][i - 10] for m in fresh if m != "case"}
                 for i in (10, 13, 19)}
        mixed, = _run_shards(spec, {}, [(0, 10, 20, 1, known)])
        assert mixed == fresh
        assert full_expansions == []

    def test_one_shard_slice_of_a_million_cases(self, full_expansions,
                                                tmp_path):
        spec = million_case_spec()
        report = run_study(spec, shards=1000, only_shards=[321])
        table = report.table
        assert table.columns["case"] == list(range(321_000, 322_000))
        assert set(table.columns["isd_m"]) == {2321.0}
        assert table.columns["threshold_db"] == list(
            spec.axes[1][1])
        store = StudyStore(cache_dir=tmp_path / "w")
        run_shard_slice(spec, 7, 500, store, shards=1000)
        assert full_expansions == []


# -- one radio evaluation per unique scenario ---------------------------------


DUPLICATE_HEAVY = """
name: dupes
engine: radio
axes:
  isd_m: [1500, 1500.0, 2000.0]
  n_repeaters: [0, 2]
  hp_eirp_dbm: [null, 60.0]
  threshold_db: [15.0, 20.0, 25.0, 29.0, 35.0]
fixed:
  resolution_m: 25.0
"""


def bits(value):
    return type(value), np.float64(value).tobytes()


class TestRadioGrouping:
    def test_rows_match_case_by_case_evaluation(self, monkeypatch):
        spec = parse_study(DUPLICATE_HEAVY)
        cases = spec.cases()
        seeds = [spec.case_seed(i) for i in range(len(cases))]
        batches = []
        original = radio_batch.evaluate_scenarios

        def spy(scenarios, **kwargs):
            batches.append(len(scenarios))
            return original(scenarios, **kwargs)

        monkeypatch.setattr(radio_batch, "evaluate_scenarios", spy)
        grouped = run_cases("radio", cases, seeds)
        # 2 distinct ISDs x 2 repeater counts x 2 EIRPs, thresholds aside.
        assert batches == [8]
        single = [run_cases("radio", [case], [s])[0]
                  for case, s in zip(cases, seeds)]
        assert len(grouped) == len(single) == 60
        for a, b in zip(grouped, single):
            assert list(a) == list(b)
            assert [bits(v) for v in a.values()] == \
                [bits(v) for v in b.values()]


# -- streamed long CSV --------------------------------------------------------


def assert_long_csv_identical(table, path):
    table.write_csv(path)
    with open(path, newline="") as handle:
        assert handle.read() == series_to_csv(table.long())


class TestLongCsv:
    @pytest.mark.parametrize("name", ["sim_grid", "robustness_grid",
                                      "table4_grid", "national_network"])
    def test_shipped_studies(self, name, tmp_path):
        table = run_study(load_study(STUDIES_DIR / f"{name}.yaml")).table
        assert_long_csv_identical(table, tmp_path / f"{name}.csv")

    def test_special_values_and_quoting(self, tmp_path, monkeypatch):
        import repro.study.results as results

        monkeypatch.setattr(results, "_CSV_CHUNK_CASES", 2)
        table = StudyTable(
            name="odd", engine="radio", axis_names=("where", "flag"),
            metric_names=("x", "y"),
            columns={
                "case": [0, 1, 2, 3, 4],
                "where": ["a,b", 'say "hi"', "two\nlines", "cr\rhere", ""],
                "flag": [True, None, np.float64(0.1), np.int64(7), -0.0],
                "x": [math.nan, math.inf, -math.inf, 1e300, 5e-324],
                "y": [1, 2.5, "s,t", None, False],
            })
        assert_long_csv_identical(table, tmp_path / "odd.csv")

    def test_empty_table_writes_the_header(self, tmp_path):
        table = StudyTable(name="e", engine="radio", axis_names=("a",),
                           metric_names=("m",),
                           columns={"case": [], "a": [], "m": []})
        assert_long_csv_identical(table, tmp_path / "e.csv")


# -- spec hash memo -----------------------------------------------------------


class TestComputeHashMemo:
    def test_hash_survives_pickling(self):
        fresh = parse_study(DUPLICATE_HEAVY)
        expected = parse_study(DUPLICATE_HEAVY).compute_hash
        assert pickle.loads(pickle.dumps(fresh)).compute_hash == expected
        assert fresh.compute_hash == expected  # memo now filled
        assert pickle.loads(pickle.dumps(fresh)).compute_hash == expected

    def test_copies_get_their_own_hash(self):
        spec = parse_study(DUPLICATE_HEAVY)
        before = spec.compute_hash
        changed = spec.with_overrides(resolution_m=50.0)
        assert changed.compute_hash != before
        assert changed.compute_hash == parse_study(DUPLICATE_HEAVY.replace(
            "resolution_m: 25.0", "resolution_m: 50.0")).compute_hash
        reseeded = replace(spec, seed=5)
        assert reseeded.compute_hash not in (before, changed.compute_hash)
        assert replace(spec, description="x").compute_hash == before
        assert spec == parse_study(DUPLICATE_HEAVY)


# -- the merge reads each bundle once -----------------------------------------


def test_merge_reads_each_bundle_once(tmp_path, monkeypatch):
    spec = parse_study(DUPLICATE_HEAVY)
    manifests = []
    for worker in range(2):
        store = StudyStore(cache_dir=tmp_path / f"w{worker}")
        manifests.append(run_shard_slice(spec, worker, 2, store,
                                         shards=5).manifest_path)
    reads = []
    original = ArrayCache._read_verified

    def spy(self, key):
        reads.append(key)
        return original(self, key)

    monkeypatch.setattr(ArrayCache, "_read_verified", spy)
    monkeypatch.setattr(StudyStore, "get_shard", None)
    out = StudyStore(cache_dir=tmp_path / "merged")
    merged = merge_manifests(spec, manifests, out_store=out)
    # Each worker ran its slice as one attempt, so wrote one bundle.
    assert sorted(reads) == sorted(set(reads)) and len(reads) == 2
    monkeypatch.undo()
    assert merged.table.wide() == run_study(spec).table.wide()
    assert run_study(spec, shards=5, store=out).reused_shards == 5
