"""Distributed study execution (ISSUE-10): shards, manifests, merge, refresh.

Pins the tentpole contracts of :mod:`repro.study.distributed` and
:mod:`repro.study.manifest`:

* a signed manifest round-trips bit-exactly and any post-signing edit is
  rejected on load;
* any K-worker round-robin split of the shard layout, merged back through
  ``merge_manifests``, is bit-identical (NaN-aware) to a single-machine
  run — including uneven slices and empty slices (more workers than
  shards);
* the merge refuses overlapping, incomplete, stale and tampered shard
  sets with structured errors naming the violated rule, and a manifest of
  an older format by its version;
* ``refresh_study`` re-executes exactly the hash-changed case set of an
  updated spec and reuses everything else verbatim;
* the ``corrupt_manifest`` fault action tears a manifest mid-run and the
  damage surfaces at merge time as a signature failure (CLI exit 4).
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ConfigurationError, ManifestError, MergeValidationError
from repro.faults import FaultInjected, FaultPlan, FaultSpec
from repro.scenario.cache import ArrayCache
from repro.study import (
    RunJournal,
    StudyStore,
    build_manifest,
    case_fingerprint,
    load_manifest,
    merge_manifests,
    parse_study,
    read_journal,
    refresh_study,
    run_shard_slice,
    run_study,
    shard_ranges,
    slice_shards,
    write_manifest,
)
from repro.study.manifest import default_manifest_name, sign_payload

MC_TEXT = """
name: mc-dist
engine: mc
seed: 11
axes:
  sigma_db: [2.0, 4.0]
  isd_m: [2000.0, 2400.0]
fixed:
  n_repeaters: 8
  trials: 12
  resolution_m: 50.0
"""

MC_TEXT_V2 = MC_TEXT.replace("[2.0, 4.0]", "[2.0, 4.0, 6.0]")


def mc_spec():
    return parse_study(MC_TEXT)


def same_value(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
    return a == b


def assert_tables_identical(a, b):
    wide_a, wide_b = a.wide(), b.wide()
    assert list(wide_a) == list(wide_b)
    for column in wide_a:
        assert len(wide_a[column]) == len(wide_b[column])
        for x, y in zip(wide_a[column], wide_b[column]):
            assert same_value(x, y), (column, x, y)


def write_v1_manifest(path):
    """Rewrite a manifest as the version-1 format (with its ``backend``
    field) and re-sign it, as a pre-version-2 worker would have left it."""
    document = json.loads(path.read_text())
    payload = dict(document["manifest"], manifest_version=1, backend="numpy")
    path.write_text(json.dumps({"manifest": payload,
                                "signature": sign_payload(payload)}))


def run_split(spec, tmp_path, workers, shards=None, **kwargs):
    """Run every slice of a ``workers``-way split; return the manifests."""
    manifests = []
    for worker in range(workers):
        store = StudyStore(maxsize=8,
                           cache_dir=tmp_path / f"worker{worker}")
        slice_run = run_shard_slice(spec, worker, workers, store,
                                    shards=shards, **kwargs)
        manifests.append(slice_run.manifest_path)
    return manifests


# -- slice_shards -------------------------------------------------------------


class TestSliceShards:
    @pytest.mark.parametrize("shard_count,of", [(4, 1), (4, 2), (5, 3),
                                                (3, 7), (16, 4)])
    def test_round_robin_partitions_the_layout(self, shard_count, of):
        slices = [slice_shards(shard_count, k, of) for k in range(of)]
        flat = [i for indices in slices for i in indices]
        assert sorted(flat) == list(range(shard_count))  # disjoint + total
        for k, indices in enumerate(slices):
            assert all(i % of == k for i in indices)

    def test_more_workers_than_shards_yields_empty_slices(self):
        assert slice_shards(2, 2, 5) == []
        assert slice_shards(2, 0, 5) == [0]

    @pytest.mark.parametrize("args", [(4, 0, 0), (4, 2, 2), (4, -1, 3),
                                      (0, 0, 1)])
    def test_invalid_split_rejected(self, args):
        with pytest.raises(ConfigurationError):
            slice_shards(*args)


# -- manifests ----------------------------------------------------------------


class TestManifest:
    def slice_manifest(self, tmp_path):
        spec = mc_spec()
        store = StudyStore(maxsize=8, cache_dir=tmp_path / "w0")
        return spec, run_shard_slice(spec, 0, 2, store, shards=4,
                                     journal=RunJournal(None))

    def test_round_trip_is_bit_exact(self, tmp_path):
        spec, slice_run = self.slice_manifest(tmp_path)
        loaded = load_manifest(slice_run.manifest_path)
        assert loaded == slice_run.manifest
        assert loaded.compute_hash == spec.compute_hash
        assert loaded.shard_indices() == (0, 2)
        assert loaded.layout == tuple(shard_ranges(4, 4))

    def test_default_name_embeds_hash_and_position(self, tmp_path):
        spec, slice_run = self.slice_manifest(tmp_path)
        name = default_manifest_name(spec, 0, 2)
        assert slice_run.manifest_path.name == name
        assert spec.compute_hash[:40] in name
        assert name.endswith(".json")  # outside the *.bundle store namespace

    def test_any_payload_edit_fails_the_signature(self, tmp_path):
        _, slice_run = self.slice_manifest(tmp_path)
        document = json.loads(slice_run.manifest_path.read_text())
        document["manifest"]["bundles"][0]["checksum"] = "0" * 64
        slice_run.manifest_path.write_text(json.dumps(document))
        with pytest.raises(ManifestError, match="signature"):
            load_manifest(slice_run.manifest_path)

    def test_torn_write_rejected(self, tmp_path):
        _, slice_run = self.slice_manifest(tmp_path)
        text = slice_run.manifest_path.read_text()
        slice_run.manifest_path.write_text(text[:len(text) // 2])
        with pytest.raises(ManifestError):
            load_manifest(slice_run.manifest_path)

    def test_unknown_and_missing_payload_keys_rejected(self, tmp_path):
        _, slice_run = self.slice_manifest(tmp_path)
        document = json.loads(slice_run.manifest_path.read_text())
        payload = document["manifest"]
        payload["surprise"] = 1
        del payload["seed_mode"]
        document["signature"] = sign_payload(payload)  # re-signed edit
        slice_run.manifest_path.write_text(json.dumps(document))
        with pytest.raises(ManifestError, match="keys mismatch"):
            load_manifest(slice_run.manifest_path)

    def test_version_2_manifest_refused_by_its_version(self, tmp_path):
        # A version-2 manifest attests one bundle per shard under a
        # "shards" key; it is named by its version, not a key mismatch.
        _, slice_run = self.slice_manifest(tmp_path)
        document = json.loads(slice_run.manifest_path.read_text())
        payload = dict(document["manifest"], manifest_version=2)
        del payload["bundles"]
        payload["shards"] = []
        slice_run.manifest_path.write_text(json.dumps(
            {"manifest": payload, "signature": sign_payload(payload)}))
        with pytest.raises(ManifestError,
                           match="unsupported manifest_version 2"):
            load_manifest(slice_run.manifest_path)

    def test_version_1_manifest_refused_by_its_version(self, tmp_path):
        # A manifest written before version 2 carries a backend field; it
        # is named by its version, not reported as a key mismatch.
        _, slice_run = self.slice_manifest(tmp_path)
        write_v1_manifest(slice_run.manifest_path)
        with pytest.raises(ManifestError,
                           match="unsupported manifest_version 1"):
            load_manifest(slice_run.manifest_path)

    def test_manifest_never_attests_missing_bundles(self, tmp_path):
        spec = mc_spec()
        store = StudyStore(maxsize=8, cache_dir=tmp_path / "w0")
        layout = shard_ranges(spec.case_count, 4)
        with pytest.raises(ManifestError, match="missing from the store"):
            build_manifest(spec, store, layout, [0], worker=0, of=2)

    def test_slice_verifies_each_bundle_once(self, tmp_path, monkeypatch):
        # The attestation reads and checksums each bundle once: a complete
        # slice claims its whole slice and build_manifest verifies it.
        calls = []
        load_verified = ArrayCache.load_verified

        def spy(self, key):
            calls.append(key)
            return load_verified(self, key)

        monkeypatch.setattr(ArrayCache, "load_verified", spy)
        _, slice_run = self.slice_manifest(tmp_path)
        assert slice_run.complete
        assert sorted(calls) == sorted(
            {entry.checksum for entry in slice_run.manifest.shards})

    def test_partial_slice_signs_only_the_verified_subset(self, tmp_path,
                                                          monkeypatch):
        # Shard 2's attempt leaves a recorded but torn bundle and fails;
        # the manifest attests shard 0 only, so the merge reports shard 2
        # missing instead of trusting the torn bundle.  Each of the two
        # recorded bundles is read and checksummed once.
        calls = []
        load_verified = ArrayCache.load_verified

        def spy(self, key):
            calls.append(key)
            return load_verified(self, key)

        monkeypatch.setattr(ArrayCache, "load_verified", spy)
        spec = mc_spec()
        store_dir = tmp_path / "w0"
        plan = FaultPlan(faults=(FaultSpec(shard=2, action="corrupt"),),
                         store_dir=str(store_dir))
        slice_run = run_shard_slice(
            spec, 0, 2, StudyStore(cache_dir=store_dir), shards=4,
            keep_going=True, journal=RunJournal(None),
            context={"fault_plan": plan.to_context()})
        assert not slice_run.complete
        assert slice_run.manifest.shard_indices() == (0,)
        assert load_manifest(slice_run.manifest_path) == slice_run.manifest
        assert len(calls) == len(set(calls)) == 2


# -- merge parity -------------------------------------------------------------


class TestMergeParity:
    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    def test_any_split_merges_bit_identical_to_inline(self, tmp_path,
                                                      workers):
        spec = mc_spec()
        inline = run_study(spec, shards=4, journal=RunJournal(None))
        manifests = run_split(spec, tmp_path, workers, shards=4,
                              journal=RunJournal(None))
        out_store = StudyStore(maxsize=8, cache_dir=tmp_path / "merged")
        report = merge_manifests(spec, manifests, out_store=out_store)
        assert_tables_identical(report.table, inline.table)
        assert 0 in report.crn_cases
        assert spec.case_count - 1 in max(
            [report.crn_cases], key=len)  # ends always sampled

    def test_uneven_layout_merges_bit_identical(self, tmp_path):
        # 4 cases over 3 shards: ranges (2, 1, 1) — uneven by design.
        spec = mc_spec()
        inline = run_study(spec, shards=3, journal=RunJournal(None))
        manifests = run_split(spec, tmp_path, 2, shards=3,
                              journal=RunJournal(None))
        report = merge_manifests(spec, manifests)
        assert_tables_identical(report.table, inline.table)

    def test_merged_store_is_resumable_inline(self, tmp_path):
        spec = mc_spec()
        manifests = run_split(spec, tmp_path, 2, shards=4,
                              journal=RunJournal(None))
        out_store = StudyStore(maxsize=8, cache_dir=tmp_path / "merged")
        merge_manifests(spec, manifests, out_store=out_store)
        # The merged store is a normal single-machine store: a resume
        # reuses every shard and computes nothing.
        resumed = run_study(spec, shards=4, store=out_store,
                            journal=RunJournal(None))
        assert resumed.computed_shards == 0 and resumed.reused_shards == 4

    def test_merge_journal_replays_worker_provenance(self, tmp_path):
        spec = mc_spec()
        manifests = run_split(spec, tmp_path, 2, shards=4)
        out_store = StudyStore(maxsize=8, cache_dir=tmp_path / "merged")
        report = merge_manifests(spec, manifests, out_store=out_store)
        events = read_journal(out_store.cache_dir / "merge.jsonl")
        kinds = [event["event"] for event in events]
        assert kinds[0] == "merge_start" and kinds[-1] == "merge_end"
        assert kinds.count("worker_replay") == 2
        assert kinds.count("merge_crn_check") == 1
        # The workers' run.jsonl lifecycles were replayed verbatim.
        assert kinds.count("run_start") == 2
        assert report.replayed_events == kinds.count("run_start") + \
            kinds.count("run_end") + kinds.count("submit") + \
            kinds.count("finish") + kinds.count("manifest")


# -- merge rejection ----------------------------------------------------------


class TestMergeRejection:
    def split(self, tmp_path, workers=2, spec=None):
        spec = spec or mc_spec()
        return spec, run_split(spec, tmp_path, workers, shards=4,
                               journal=RunJournal(None))

    def kind_of(self, excinfo) -> str:
        return excinfo.value.kind

    def test_stale_spec_hash_rejected(self, tmp_path):
        spec, manifests = self.split(tmp_path)
        updated = parse_study(MC_TEXT.replace("seed: 11", "seed: 12"))
        with pytest.raises(MergeValidationError) as excinfo:
            merge_manifests(updated, manifests)
        assert self.kind_of(excinfo) == "spec_hash"

    def test_disagreeing_layouts_rejected(self, tmp_path):
        spec = mc_spec()
        store0 = StudyStore(maxsize=8, cache_dir=tmp_path / "w0")
        store1 = StudyStore(maxsize=8, cache_dir=tmp_path / "w1")
        a = run_shard_slice(spec, 0, 2, store0, shards=2,
                            journal=RunJournal(None))
        b = run_shard_slice(spec, 1, 2, store1, shards=4,
                            journal=RunJournal(None))
        with pytest.raises(MergeValidationError) as excinfo:
            merge_manifests(spec, [a.manifest_path, b.manifest_path])
        assert self.kind_of(excinfo) == "layout"

    def test_resigned_range_edit_rejected_by_layout_check(self, tmp_path):
        # A correctly *re-signed* manifest whose shard entry lies about
        # its case range: the signature passes, the layout rule does not —
        # the seal is tamper evidence, not the only line of defence.
        spec, manifests = self.split(tmp_path)
        document = json.loads(manifests[0].read_text())
        document["manifest"]["bundles"][0]["shards"][0]["stop"] += 1
        document["signature"] = sign_payload(document["manifest"])
        manifests[0].write_text(json.dumps(document))
        with pytest.raises(MergeValidationError) as excinfo:
            merge_manifests(spec, manifests)
        assert self.kind_of(excinfo) == "layout"

    def test_overlapping_claims_rejected(self, tmp_path):
        spec, manifests = self.split(tmp_path)
        # Forge a third worker claiming shard 0 — already owned by
        # worker 0 — from worker 0's own (valid) bundles.
        store0 = StudyStore(maxsize=8, cache_dir=tmp_path / "worker0")
        layout = shard_ranges(spec.case_count, 4)
        forged = build_manifest(spec, store0, layout, [0], worker=2, of=2)
        forged_path = write_manifest(forged, tmp_path / "worker0"
                                     / "forged.json")
        with pytest.raises(MergeValidationError) as excinfo:
            merge_manifests(spec, [*manifests, forged_path])
        assert self.kind_of(excinfo) == "overlap"

    def test_missing_coverage_rejected(self, tmp_path):
        spec, manifests = self.split(tmp_path)
        with pytest.raises(MergeValidationError) as excinfo:
            merge_manifests(spec, manifests[:1])  # worker 1 never arrived
        assert self.kind_of(excinfo) == "missing"
        assert excinfo.value.details["shards"] == [1, 3]

    def worker1_bundle(self, tmp_path, manifests) -> Path:
        """The bundle holding worker 1's first shard, found through its
        signed manifest."""
        entry = load_manifest(manifests[1]).shards[0]
        return StudyStore(cache_dir=tmp_path / "worker1").bundle_path(
            entry.checksum)

    @pytest.mark.parametrize("damage", [
        lambda data: b"PK\x03\x04torn",
        lambda data: data[:-3],
        lambda data: data + b"\x00",
        lambda data: data[:-1] + bytes([data[-1] ^ 1]),
    ], ids=["not_a_bundle", "truncated", "trailing_bytes", "bit_flip"])
    def test_tampered_bundle_rejected(self, tmp_path, damage):
        spec, manifests = self.split(tmp_path)
        bundle = self.worker1_bundle(tmp_path, manifests)
        bundle.write_bytes(damage(bundle.read_bytes()))
        with pytest.raises(MergeValidationError) as excinfo:
            merge_manifests(spec, manifests)
        assert self.kind_of(excinfo) == "checksum"
        assert bundle.exists()  # the evidence stays in place

    def test_legacy_npz_store_is_a_missing_bundle(self, tmp_path):
        # A worker store from an older release holds .npz files, which are
        # not read: the merge reports the bundle missing.
        spec, manifests = self.split(tmp_path)
        bundle = self.worker1_bundle(tmp_path, manifests)
        bundle.rename(bundle.with_suffix(".npz"))
        with pytest.raises(MergeValidationError,
                           match="missing or unreadable") as excinfo:
            merge_manifests(spec, manifests)
        assert self.kind_of(excinfo) == "checksum"

    def test_crn_divergence_rejected(self, tmp_path):
        # The nastiest case: a worker whose bundle is internally
        # consistent (valid checksum, honestly re-attested manifest) but
        # whose *values* differ from what this machine computes — e.g. a
        # subtly different environment.  Only the inline CRN spot-check
        # can catch it.
        spec, manifests = self.split(tmp_path)
        store0 = StudyStore(maxsize=8, cache_dir=tmp_path / "worker0")
        start, stop = shard_ranges(spec.case_count, 4)[0]
        raw = dict(store0.get_shard(spec, start, stop))
        raw["outage_probability"] = np.array(raw["outage_probability"],
                                             dtype=float) + 0.25
        store0.put_shard(spec, start, stop, raw)
        layout = shard_ranges(spec.case_count, 4)
        honest = build_manifest(spec, store0, layout, [0, 2], worker=0, of=2)
        write_manifest(honest, manifests[0])
        with pytest.raises(MergeValidationError) as excinfo:
            merge_manifests(spec, manifests, crn_sample=spec.case_count)
        assert self.kind_of(excinfo) == "crn"
        assert excinfo.value.details["worker"] == 0

    def test_no_manifests_rejected(self):
        with pytest.raises(ConfigurationError):
            merge_manifests(mc_spec(), [])


# -- rolling re-evaluation ----------------------------------------------------


class TestRefresh:
    def test_refresh_recomputes_exactly_the_changed_cases(self, tmp_path):
        spec = mc_spec()
        updated = parse_study(MC_TEXT_V2)
        store = StudyStore(maxsize=8, cache_dir=tmp_path / "store")
        run_study(spec, shards=4, store=store, journal=RunJournal(None))

        report = refresh_study(updated, spec, store,
                               journal=RunJournal(None))
        previous_prints = {case_fingerprint(spec, i, case)
                           for i, case in enumerate(spec.cases())}
        expected = tuple(
            i for i, case in enumerate(updated.cases())
            if case_fingerprint(updated, i, case) not in previous_prints)
        assert report.changed == expected
        assert 0 < len(report.changed) < updated.case_count
        assert report.reused == updated.case_count - len(report.changed)

        fresh = run_study(updated, journal=RunJournal(None))
        assert_tables_identical(report.table, fresh.table)

    def test_refresh_of_unchanged_spec_recomputes_nothing(self, tmp_path):
        spec = mc_spec()
        store = StudyStore(maxsize=8, cache_dir=tmp_path / "store")
        run_study(spec, shards=4, store=store, journal=RunJournal(None))
        report = refresh_study(spec, spec, store, journal=RunJournal(None))
        assert report.changed == ()
        assert report.reused == spec.case_count

    def test_refreshed_store_chains_into_another_refresh(self, tmp_path):
        spec = mc_spec()
        updated = parse_study(MC_TEXT_V2)
        store = StudyStore(maxsize=8, cache_dir=tmp_path / "store")
        run_study(spec, shards=4, store=store, journal=RunJournal(None))
        refresh_study(updated, spec, store, journal=RunJournal(None))
        # v2 -> v2 costs nothing: the refreshed shards are a normal store.
        again = refresh_study(updated, updated, store,
                              journal=RunJournal(None))
        assert again.changed == ()

    def test_refresh_emits_journal_events(self, tmp_path):
        spec = mc_spec()
        updated = parse_study(MC_TEXT_V2)
        store = StudyStore(maxsize=8, cache_dir=tmp_path / "store")
        run_study(spec, shards=4, store=store, journal=RunJournal(None))
        refresh_study(updated, spec, store)
        events = read_journal(store.cache_dir / "run.jsonl")
        kinds = [event["event"] for event in events]
        assert "refresh_start" in kinds and "refresh_end" in kinds
        end = events[kinds.index("refresh_end")]
        assert end["changed"] + end["reused"] == updated.case_count


def recording_engine(monkeypatch) -> list:
    """Wrap the ``mc`` adapter; returns the list of cases it receives."""
    from repro.study.engines import STUDY_ENGINES

    adapter = STUDY_ENGINES["mc"]
    seen = []

    def runner(cases, seeds, context):
        seen.extend((case["sigma_db"], case["isd_m"]) for case in cases)
        return adapter.runner(cases, seeds, context)

    monkeypatch.setitem(STUDY_ENGINES, "mc", replace(adapter, runner=runner))
    return seen


class TestSupervisedRefresh:
    """Refresh runs through ``run_study``: case-granular reuse inside a
    shard, per-shard persistence, fault plans and resume."""

    def seeded_store(self, tmp_path, name="store"):
        spec = mc_spec()
        store = StudyStore(maxsize=8, cache_dir=tmp_path / name)
        run_study(spec, shards=4, store=store, journal=RunJournal(None))
        return spec, parse_study(MC_TEXT_V2), store

    def case_keys(self, spec, indices):
        cases = spec.cases()
        return sorted((cases[i]["sigma_db"], cases[i]["isd_m"])
                      for i in indices)

    def test_mixed_shard_sends_only_its_changed_cases(self, tmp_path,
                                                      monkeypatch):
        spec, updated, store = self.seeded_store(tmp_path)
        previous_prints = {case_fingerprint(spec, i, case)
                           for i, case in enumerate(spec.cases())}
        diff = tuple(
            i for i, case in enumerate(updated.cases())
            if case_fingerprint(updated, i, case) not in previous_prints)
        # Shard 1 of the 2-shard layout holds reused case 3 and the diff.
        assert diff == (4, 5)
        assert shard_ranges(updated.case_count, 2) == [(0, 3), (3, 6)]

        seen = recording_engine(monkeypatch)
        report = refresh_study(updated, spec, store, shards=2,
                               journal=RunJournal(None))
        assert sorted(seen) == self.case_keys(updated, diff)
        assert report.changed == diff
        fresh = run_study(updated, journal=RunJournal(None))
        assert_tables_identical(report.table, fresh.table)

    def test_failed_refresh_resumes_with_only_the_missing_cases(
            self, tmp_path, monkeypatch):
        spec, updated, store = self.seeded_store(tmp_path)
        plan = FaultPlan(faults=(FaultSpec(shard=1, action="raise"),))
        with pytest.raises(FaultInjected):
            refresh_study(updated, spec, store, shards=2,
                          context={"fault_plan": plan.to_context()})
        layout = shard_ranges(updated.case_count, 2)
        assert store.shard_checksum(updated, *layout[0]) is not None
        assert store.shard_checksum(updated, *layout[1]) is None
        events = [(event["event"], event.get("shard"))
                  for event in read_journal(store.cache_dir / "run.jsonl")]
        assert ("submit", 1) in events and ("failure", 1) in events
        assert "refresh_end" not in [kind for kind, _ in events]

        seen = recording_engine(monkeypatch)
        resumed = refresh_study(updated, spec, store, shards=2)
        assert resumed.changed == (4, 5)
        assert sorted(seen) == self.case_keys(updated, (4, 5))

        _, _, clean_store = self.seeded_store(tmp_path, "clean")
        clean = refresh_study(updated, spec, clean_store, shards=2,
                              journal=RunJournal(None))
        assert_tables_identical(resumed.table, clean.table)

    def test_refresh_records_the_updated_spec(self, tmp_path):
        spec, updated, store = self.seeded_store(tmp_path)
        assert store.run_record(updated).header is None
        refresh_study(updated, spec, store, journal=RunJournal(None))
        assert store.run_record(updated).header["compute_hash"] \
            == updated.compute_hash


# -- fault injection across the trust boundary --------------------------------


class TestManifestFault:
    def test_corrupt_manifest_plan_requires_a_target(self):
        with pytest.raises(ConfigurationError, match="manifest_path"):
            FaultPlan(faults=(FaultSpec(shard=0,
                                        action="corrupt_manifest"),))

    def test_torn_manifest_surfaces_at_merge_time(self, tmp_path):
        spec = mc_spec()
        store0 = StudyStore(maxsize=8, cache_dir=tmp_path / "w0")
        a = run_shard_slice(spec, 0, 2, store0, shards=4,
                            journal=RunJournal(None))
        # Worker 1's run tears worker 0's already-written manifest — a
        # write-path fault; worker 1 itself completes normally.
        plan = FaultPlan(
            faults=(FaultSpec(shard=1, attempt=1,
                              action="corrupt_manifest"),),
            manifest_path=str(a.manifest_path))
        store1 = StudyStore(maxsize=8, cache_dir=tmp_path / "w1")
        b = run_shard_slice(spec, 1, 2, store1, shards=4,
                            journal=RunJournal(None),
                            context={"fault_plan": plan.to_context()})
        assert b.complete
        with pytest.raises(ManifestError, match="signature"):
            merge_manifests(spec, [a.manifest_path, b.manifest_path])


# -- CLI exit codes -----------------------------------------------------------


class TestCli:
    def write_study(self, tmp_path):
        path = tmp_path / "study.yaml"
        path.write_text(MC_TEXT)
        return path

    def test_shard_merge_round_trip(self, tmp_path, capsys):
        path = self.write_study(tmp_path)
        manifests = []
        for worker in range(2):
            store = tmp_path / f"w{worker}"
            manifest = store / "manifest.json"
            code = main(["study", "shard", str(path), "--quiet",
                         "--index", str(worker), "--of", "2",
                         "--shards", "4", "--store", str(store),
                         "--manifest", str(manifest)])
            assert code == 0
            manifests.append(manifest)
        merged_json = tmp_path / "merged.json"
        code = main(["study", "merge", str(path),
                     *[str(m) for m in manifests], "--quiet",
                     "--json", str(merged_json)])
        assert code == 0
        inline_json = tmp_path / "inline.json"
        assert main(["study", "run", str(path), "--quiet", "--shards", "4",
                     "--json", str(inline_json)]) == 0
        merged = json.loads(merged_json.read_text())
        inline = json.loads(inline_json.read_text())
        assert merged["rows"] == inline["rows"]

    def test_merge_rejection_exits_4(self, tmp_path, capsys):
        path = self.write_study(tmp_path)
        store = tmp_path / "w0"
        manifest = store / "manifest.json"
        assert main(["study", "shard", str(path), "--quiet",
                     "--index", "0", "--of", "2", "--shards", "4",
                     "--store", str(store),
                     "--manifest", str(manifest)]) == 0
        code = main(["study", "merge", str(path), str(manifest), "--quiet"])
        assert code == 4
        assert "[missing]" in capsys.readouterr().err

    def test_merge_of_a_version_1_manifest_exits_4(self, tmp_path, capsys):
        path = self.write_study(tmp_path)
        manifests = []
        for worker in range(2):
            manifest = tmp_path / f"w{worker}" / "manifest.json"
            assert main(["study", "shard", str(path), "--quiet",
                         "--index", str(worker), "--of", "2",
                         "--shards", "4", "--store", str(manifest.parent),
                         "--manifest", str(manifest)]) == 0
            manifests.append(manifest)
        write_v1_manifest(manifests[1])
        code = main(["study", "merge", str(path),
                     *[str(m) for m in manifests], "--quiet"])
        assert code == 4
        err = capsys.readouterr().err
        assert "[manifest]" in err
        assert "unsupported manifest_version 1" in err

    def test_run_with_manifest_is_a_1_of_1_slice(self, tmp_path, capsys):
        path = self.write_study(tmp_path)
        store = tmp_path / "store"
        manifest = tmp_path / "solo.json"
        assert main(["study", "run", str(path), "--quiet", "--shards", "4",
                     "--store", str(store),
                     "--manifest", str(manifest)]) == 0
        loaded = load_manifest(manifest)
        assert loaded.worker == 0 and loaded.of == 1
        assert loaded.shard_indices() == (0, 1, 2, 3)

    def test_refresh_cli_round_trip(self, tmp_path, capsys):
        old = tmp_path / "v1.yaml"
        old.write_text(MC_TEXT)
        new = tmp_path / "v2.yaml"
        new.write_text(MC_TEXT_V2)
        store = tmp_path / "store"
        assert main(["study", "run", str(old), "--quiet",
                     "--store", str(store)]) == 0
        assert main(["study", "refresh", str(new),
                     "--previous", str(old), "--store", str(store)]) == 0
        assert "recomputed" in capsys.readouterr().err  # the summary line

    def test_interrupted_refresh_exits_3(self, tmp_path, capsys,
                                         monkeypatch):
        from repro.study.engines import STUDY_ENGINES

        old = tmp_path / "v1.yaml"
        old.write_text(MC_TEXT)
        new = tmp_path / "v2.yaml"
        new.write_text(MC_TEXT_V2)
        store = tmp_path / "store"
        assert main(["study", "run", str(old), "--quiet",
                     "--store", str(store)]) == 0

        def interrupt(cases, seeds, context):
            raise KeyboardInterrupt

        monkeypatch.setitem(STUDY_ENGINES, "mc",
                            replace(STUDY_ENGINES["mc"], runner=interrupt))
        assert main(["study", "refresh", str(new), "--previous", str(old),
                     "--store", str(store)]) == 3
        assert "partial" in capsys.readouterr().err

    def test_shard_requires_a_store(self, tmp_path, capsys):
        path = self.write_study(tmp_path)
        with pytest.raises(SystemExit):
            main(["study", "shard", str(path), "--index", "0", "--of", "2"])

    def test_unreadable_study_exits_2(self, tmp_path):
        assert main(["study", "merge", str(tmp_path / "absent.yaml"),
                     "x.json"]) == 2
        assert main(["study", "refresh", str(tmp_path / "absent.yaml"),
                     "--previous", "also-absent.yaml",
                     "--store", str(tmp_path / "s")]) == 2
