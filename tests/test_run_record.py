"""The study store's bundles and per-spec run record.

Each attempt stores its shards as one ``<checksum>.bundle`` and appends one
line to ``{hash40}-run.jsonl`` mapping every member shard to that bundle
and its row slice.  Pinned here:

* **no directory listings** — with 10 000 foreign bundles in the store, a
  fresh, repeated, resumed, re-laid-out and refreshed run list nothing, and
  a fresh run opens no more files than the bundles it writes plus two (its
  run record and its journal);
* **crash windows** — after random layouts and random attempt groupings,
  deleting or tearing bundles, tearing the record's last line, or losing
  it (a kill between a bundle's rename and its record line) makes the
  rerun recompute exactly the members of the lost bundles, and its table
  is byte-identical to a clean run.
"""

import builtins
import io
import os
import pathlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.study.runner as runner
from repro.study import (
    RunJournal,
    StudyStore,
    parse_study,
    read_journal,
    refresh_study,
    run_study,
    scan_journal,
    shard_ranges,
)

MC_TEXT = """
name: mc-record
engine: mc
seed: 5
axes:
  sigma_db: [2.0, 4.0, 6.0]
  isd_m: [2000.0, 2400.0]
fixed:
  n_repeaters: 8
  trials: 12
  resolution_m: 50.0
"""


def mc_spec(text=MC_TEXT):
    return parse_study(text)


def csv_bytes(table, path: Path) -> bytes:
    return table.write_csv(path).read_bytes()


# -- no directory listings ----------------------------------------------------


FOREIGN_BUNDLES = 10_000


@pytest.fixture
def crowded(tmp_path):
    """A store directory already holding 10 000 foreign bundles."""
    store_dir = tmp_path / "store"
    store_dir.mkdir()
    for i in range(FOREIGN_BUNDLES):
        (store_dir / f"{i:064x}.bundle").write_bytes(b"")
    return store_dir


@pytest.fixture
def io_spy(monkeypatch):
    """Every directory listing and every opened path, from here on."""
    seen = {"listings": [], "opened": set(), "bundles": 0}

    def listing(name, function):
        def spy(*args, **kwargs):
            seen["listings"].append(name)
            return function(*args, **kwargs)
        return spy

    monkeypatch.setattr(os, "scandir", listing("scandir", os.scandir))
    monkeypatch.setattr(os, "listdir", listing("listdir", os.listdir))
    monkeypatch.setattr(pathlib.Path, "glob",
                        listing("glob", pathlib.Path.glob))
    monkeypatch.setattr(pathlib.Path, "iterdir",
                        listing("iterdir", pathlib.Path.iterdir))

    real_open, real_os_open = builtins.open, os.open

    def opened(file, *args, **kwargs):
        seen["opened"].add(os.fspath(file))
        return real_open(file, *args, **kwargs)

    def os_opened(path, *args, **kwargs):
        seen["opened"].add(os.fspath(path))
        return real_os_open(path, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", opened)
    monkeypatch.setattr(io, "open", opened)
    monkeypatch.setattr(os, "open", os_opened)

    put_bundle = StudyStore.put_bundle

    def counted(self, *args, **kwargs):
        seen["bundles"] += 1
        return put_bundle(self, *args, **kwargs)

    monkeypatch.setattr(StudyStore, "put_bundle", counted)
    return seen


class TestNoListings:
    def test_fresh_run(self, crowded, io_spy):
        report = run_study(mc_spec(), shards=4,
                           store=StudyStore(cache_dir=crowded))
        assert report.computed_shards == 4
        assert io_spy["listings"] == []
        # The run record, the journal and one temp file per bundle.
        assert io_spy["bundles"] == 1
        assert len(io_spy["opened"]) <= io_spy["bundles"] + 2

    def test_repeated_run(self, crowded, io_spy):
        run_study(mc_spec(), shards=4, store=StudyStore(cache_dir=crowded))
        report = run_study(mc_spec(), shards=4,
                           store=StudyStore(cache_dir=crowded))
        assert report.reused_shards == 4
        assert io_spy["listings"] == []

    def test_resumed_run(self, crowded, io_spy):
        partial = run_study(mc_spec(), shards=4, max_shards=2,
                            store=StudyStore(cache_dir=crowded))
        assert partial.partial
        report = run_study(mc_spec(), shards=4,
                           store=StudyStore(cache_dir=crowded))
        assert (report.reused_shards, report.computed_shards) == (2, 2)
        assert io_spy["listings"] == []

    def test_layout_change(self, crowded, io_spy, monkeypatch):
        monkeypatch.setattr(runner, "_WARNED_LAYOUTS", set())
        run_study(mc_spec(), shards=4, store=StudyStore(cache_dir=crowded))
        with pytest.warns(RuntimeWarning, match="different shard layout"):
            report = run_study(mc_spec(), shards=2,
                               store=StudyStore(cache_dir=crowded))
        assert report.reused_shards == 0
        assert io_spy["listings"] == []
        mismatch, = [event for event in read_journal(crowded / "run.jsonl")
                     if event["event"] == "layout_mismatch"]
        assert mismatch["stored"] == [list(r) for r in shard_ranges(6, 4)]
        assert mismatch["current"] == [list(r) for r in shard_ranges(6, 2)]

    def test_refresh(self, crowded, io_spy):
        previous = mc_spec()
        updated = mc_spec(MC_TEXT.replace("[2.0, 4.0, 6.0]",
                                          "[2.0, 4.0, 6.0, 8.0]"))
        run_study(previous, shards=3, store=StudyStore(cache_dir=crowded))
        report = refresh_study(updated, previous,
                               StudyStore(cache_dir=crowded), shards=4)
        assert report.reused == 6 and len(report.changed) == 2
        assert io_spy["listings"] == []


# -- crash windows ------------------------------------------------------------


@pytest.fixture(scope="module")
def clean_csv(tmp_path_factory):
    table = run_study(mc_spec(), journal=RunJournal(None)).table
    return csv_bytes(table, tmp_path_factory.mktemp("clean") / "clean.csv")


def _record_path(store_dir: Path) -> Path:
    return store_dir / f"{mc_spec().compute_hash[:40]}-run.jsonl"


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_rerun_recomputes_exactly_the_lost_bundles(tmp_path_factory,
                                                   clean_csv, data):
    spec = mc_spec()
    work = tmp_path_factory.mktemp("crash")
    store_dir = work / "store"
    shards = data.draw(st.integers(1, spec.case_count), label="shards")
    layout = shard_ranges(spec.case_count, shards)
    # A random split of the layout into attempt groups: each partial run
    # stores its pending shards as one bundle.
    cuts = sorted(data.draw(st.sets(st.integers(1, shards - 1)),
                            label="cuts")) if shards > 1 else []
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, shards])]
    for size in sizes:
        run_study(spec, shards=shards, max_shards=size,
                  store=StudyStore(cache_dir=store_dir),
                  journal=RunJournal(None))

    store = StudyStore(cache_dir=store_dir)
    recorded = store.run_record(spec)
    assert recorded.stored_ranges() == layout
    members: dict[str, list] = {}
    for case_range, (key, _, _) in sorted(recorded.shards.items()):
        members.setdefault(key, []).append(case_range)
    assert len(members) == len(sizes)

    lost: set = set()
    for key, ranges in members.items():
        action = data.draw(st.sampled_from(["keep", "delete", "tear"]),
                           label="bundle")
        path = store.bundle_path(key)
        if action == "delete":
            path.unlink()
        elif action == "tear":
            raw = path.read_bytes()
            path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1),
                                            label="torn length")])
        if action != "keep":
            lost.update(ranges)

    record_path = _record_path(store_dir)
    text = record_path.read_bytes()
    head, last = text[:text.rindex(b"\n", 0, -1) + 1], text[
        text.rindex(b"\n", 0, -1) + 1:]
    damage = data.draw(st.sampled_from(["none", "torn", "unrecorded"]),
                       label="record")
    if damage != "none":
        # The last line records the last run's bundle.  Cut mid-write it
        # misses at least its closing brace; never written, it is a kill
        # between the bundle's rename and its record line.
        keep = (data.draw(st.integers(1, len(last) - 2), label="cut")
                if damage == "torn" else 0)
        record_path.write_bytes(head + last[:keep])
        lost.update(members[list(members)[-1]])

    rerun = run_study(spec, shards=shards,
                      store=StudyStore(cache_dir=store_dir),
                      journal=RunJournal(None))
    assert set(rerun.computed_ranges) == lost
    assert rerun.reused_shards == shards - len(lost)
    assert csv_bytes(rerun.table, work / "rerun.csv") == clean_csv

    # The rerun's record lines stayed whole behind a torn tail: its header
    # is there, and a third run reuses every shard.
    lines, _ = scan_journal(record_path)
    headers = sum(1 for line in lines if "compute_hash" in line)
    assert headers == len(sizes) + bool(lost)
    third = run_study(spec, shards=shards,
                      store=StudyStore(cache_dir=store_dir),
                      journal=RunJournal(None))
    assert third.computed_shards == 0 and third.reused_shards == shards
    assert csv_bytes(third.table, work / "third.csv") == clean_csv


@pytest.mark.parametrize("at", ["bundle key", "structure"])
def test_a_non_utf8_byte_loses_only_its_line(tmp_path, clean_csv, at):
    # Bit rot or a foreign write puts a byte that is not UTF-8 into one
    # record line: that line's bundle counts as not stored, the rest of
    # the record still reads, and the rerun recomputes exactly its shards.
    spec = mc_spec()
    store_dir = tmp_path / "store"
    for max_shards in (2, None):
        run_study(spec, shards=4, max_shards=max_shards,
                  store=StudyStore(cache_dir=store_dir),
                  journal=RunJournal(None))
    record_path = _record_path(store_dir)
    lines = record_path.read_bytes().splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if b'"bundle"' in line)
    line = lines[first]
    cut = (line.index(b'"bundle": "') + 12 if at == "bundle key"
           else line.index(b"{") + 1)
    lines[first] = line[:cut] + b"\xff" + line[cut:]
    record_path.write_bytes(b"".join(lines))

    store = StudyStore(cache_dir=store_dir)
    rerun = run_study(spec, shards=4, store=store, journal=RunJournal(None))
    assert rerun.computed_ranges == ((0, 2), (2, 3))
    assert rerun.reused_shards == 2 and store.quarantined == 0
    assert csv_bytes(rerun.table, tmp_path / "rerun.csv") == clean_csv
