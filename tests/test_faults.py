"""Fault-injection matrix for the supervised study runner.

The ISSUE-7 contract: under injected raise / hang / hard-crash /
corrupt-store faults the supervisor converges to a merged StudyTable
**bit-identical** to the fault-free run (the CRN shard-layout-independence
contract survives retries, pool rebuilds and resume-after-corruption),
exit codes 0/3/4 are pinned by CLI tests, and every recovery is traceable
in the ``run.jsonl`` journal.
"""

import json
from pathlib import Path

import pytest

import repro.study.runner as runner
from repro.cli import main
from repro.errors import ConfigurationError
from repro.faults import FaultInjected, FaultPlan, FaultSpec, load_fault_plan
from repro.study import (
    StudyStore,
    parse_study,
    read_journal,
    retry_delay,
    run_study,
)

MC_TEXT = """
name: mc-tiny
engine: mc
seed: 7
axes:
  sigma_db: [2.0, 4.0]
  isd_m: [2000.0, 2400.0]
fixed:
  n_repeaters: 8
  trials: 12
  resolution_m: 50.0
"""


def mc_spec():
    return parse_study(MC_TEXT)


@pytest.fixture(scope="module")
def clean_table():
    """The fault-free reference run every recovery must reproduce."""
    return run_study(mc_spec(), shards=4).table.long()


def fault_context(*faults, store_dir=None):
    plan = FaultPlan(faults=tuple(faults), store_dir=store_dir)
    return {"fault_plan": plan.to_context()}


# -- the fault plan itself ----------------------------------------------------


class TestFaultPlan:
    def test_round_trip_through_context(self):
        plan = FaultPlan(faults=(FaultSpec(shard=2, attempt=3, action="hang",
                                           hang_s=9.0),))
        rebuilt = FaultPlan.from_context({"fault_plan": plan.to_context()})
        assert rebuilt == plan
        assert FaultPlan.from_context({}) is None

    def test_find_matches_shard_and_attempt(self):
        plan = FaultPlan(faults=(FaultSpec(shard=1, attempt=2),))
        assert plan.find(1, 2) is not None
        assert plan.find(1, 1) is None
        assert plan.find(0, 2) is None

    def test_execute_noop_without_matching_fault(self):
        FaultPlan(faults=(FaultSpec(shard=1),)).execute(0, 1)

    def test_raise_action(self):
        plan = FaultPlan(faults=(FaultSpec(shard=0, action="raise"),))
        with pytest.raises(FaultInjected, match="shard 0 attempt 1"):
            plan.execute(0, 1)

    @pytest.mark.parametrize("mutation, match", [
        ({"action": "melt"}, "unknown fault action"),
        ({"shard": -1}, "shard index"),
        ({"attempt": 0}, "attempt"),
        ({"hang_s": -1.0}, "hang_s"),
    ])
    def test_spec_validation(self, mutation, match):
        fields = {"shard": 0}
        fields.update(mutation)
        with pytest.raises(ConfigurationError, match=match):
            FaultSpec(**fields)

    def test_corrupt_requires_store_dir(self):
        with pytest.raises(ConfigurationError, match="store_dir"):
            FaultPlan(faults=(FaultSpec(shard=0, action="corrupt"),))

    def test_load_fault_plan_json(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "store_dir": str(tmp_path),
            "faults": [{"shard": 1, "attempt": 2, "action": "corrupt"}],
        }))
        plan = load_fault_plan(path)
        assert plan.faults[0].action == "corrupt"
        assert plan.store_dir == str(tmp_path)

    @pytest.mark.parametrize("text, match", [
        ("[1, 2]", "must be a mapping"),
        ('{"frobnicate": []}', "unknown fault-plan keys"),
        ('{"faults": 3}', "must be a list"),
        ('{"faults": [4]}', "each fault must be a mapping"),
        ('{"faults": [{"shard": 0, "when": "now"}]}', "unknown fault keys"),
        ("not json", "not valid JSON"),
    ])
    def test_load_fault_plan_rejects(self, tmp_path, text, match):
        path = tmp_path / "plan.json"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match=match):
            load_fault_plan(path)


class TestRetryDelay:
    def test_deterministic_and_capped(self):
        a = retry_delay(7, 2, 3, base=0.5, cap=4.0)
        assert a == retry_delay(7, 2, 3, base=0.5, cap=4.0)
        assert 0.0 < a <= 4.0
        assert retry_delay(7, 2, 10, base=0.5, cap=4.0) <= 4.0
        assert retry_delay(7, 2, 1, base=0.0) == 0.0

    def test_varies_with_seed_and_attempt(self):
        delays = {retry_delay(seed, 0, attempt, base=1.0)
                  for seed in (1, 2) for attempt in (1, 2)}
        assert len(delays) == 4


# -- recovery matrix: bit-identical tables under every fault ------------------


class TestRecoveryMatrix:
    def test_raise_fault_retried_inline(self, clean_table):
        report = run_study(mc_spec(), shards=4, retries=2, backoff_base=0.0,
                           context=fault_context(FaultSpec(shard=1)))
        assert report.table.long() == clean_table
        assert report.shard_attempts[1] == 2
        assert not report.partial and not report.failed_shards

    def test_raise_fault_retried_in_pool(self, clean_table, tmp_path):
        journal = tmp_path / "run.jsonl"
        report = run_study(mc_spec(), jobs=2, shards=4, retries=2,
                           backoff_base=0.0, journal=journal,
                           context=fault_context(FaultSpec(shard=2)))
        assert report.table.long() == clean_table
        events = read_journal(journal)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        retry, = (e for e in events if e["event"] == "retry")
        assert retry["shard"] == 2 and "FaultInjected" in retry["error"]
        finishes = [e for e in events if e["event"] == "finish"]
        assert len(finishes) == 4

    def test_crash_fault_rebuilds_pool(self, clean_table, tmp_path):
        journal = tmp_path / "run.jsonl"
        report = run_study(mc_spec(), jobs=2, shards=4, retries=2,
                           backoff_base=0.0, journal=journal,
                           context=fault_context(
                               FaultSpec(shard=0, action="crash")))
        assert report.table.long() == clean_table
        events = read_journal(journal)
        assert any(e["event"] == "pool_broken" for e in events)
        assert any(e["event"] == "retry" and e["kind"] == "crash"
                   for e in events)

    def test_hang_fault_hits_shard_timeout(self, clean_table, tmp_path):
        journal = tmp_path / "run.jsonl"
        report = run_study(mc_spec(), jobs=2, shards=4, retries=1,
                           backoff_base=0.0, shard_timeout=2.0,
                           journal=journal,
                           context=fault_context(
                               FaultSpec(shard=3, action="hang", hang_s=60.0)))
        assert report.table.long() == clean_table
        events = read_journal(journal)
        timeout, = (e for e in events if e["event"] == "timeout")
        assert timeout["shard"] == 3 and timeout["timeout_s"] == 2.0

    @staticmethod
    def torn_bundle(journal):
        """The bundle file a ``corrupt`` fault named in the journal."""
        event, = (e for e in read_journal(journal)
                  if e["event"] in ("retry", "failure"))
        assert "FaultInjected" in event["error"]
        name = event["error"].split("(bundle ")[1].split(")")[0]
        assert name.endswith(".bundle")
        return name

    def test_corrupt_fault_repaired_by_retry(self, clean_table, tmp_path):
        store_dir = tmp_path / "store"
        store = StudyStore(cache_dir=store_dir)
        report = run_study(mc_spec(), shards=4, retries=1, backoff_base=0.0,
                           store=store, journal=tmp_path / "run.jsonl",
                           context=fault_context(
                               FaultSpec(shard=1, action="corrupt"),
                               store_dir=str(store_dir)))
        assert report.table.long() == clean_table
        # The torn bundle stays on disk, recorded for shard 1 ...
        torn = self.torn_bundle(tmp_path / "run.jsonl")
        assert (store_dir / torn).read_bytes().endswith(
            b"torn-by-fault-injection")
        record = [json.loads(line) for line in (
            store_dir / f"{mc_spec().compute_hash[:40]}-run.jsonl"
        ).read_text().splitlines()]
        holders = [line["bundle"] + ".bundle" for line in record
                   if "bundle" in line
                   and any(r[:2] == [1, 2] for r in line["shards"])]
        assert holders[0] == torn and holders[-1] != torn
        # ... but the retry's later line supersedes it: a fresh store
        # resumes all 4 shards without reading the torn bundle.
        fresh = StudyStore(cache_dir=store_dir)
        resumed = run_study(mc_spec(), shards=4, store=fresh)
        assert resumed.reused_shards == 4 and fresh.quarantined == 0
        assert resumed.table.long() == clean_table

    def test_corrupt_fault_without_retry_recomputed_on_resume(
            self, clean_table, tmp_path):
        store_dir = tmp_path / "store"
        report = run_study(mc_spec(), shards=4, retries=0, keep_going=True,
                           store=StudyStore(cache_dir=store_dir),
                           journal=tmp_path / "run.jsonl",
                           context=fault_context(
                               FaultSpec(shard=1, action="corrupt"),
                               store_dir=str(store_dir)))
        assert report.partial and report.computed_shards == 3
        torn = self.torn_bundle(tmp_path / "run.jsonl")
        # The resume reads the record's last word on shard 1, the torn
        # bundle: it is quarantined and exactly shard 1 recomputes.
        fresh = StudyStore(cache_dir=store_dir)
        resumed = run_study(mc_spec(), shards=4, store=fresh)
        assert resumed.reused_shards == 3
        assert resumed.computed_ranges == ((1, 2),)
        assert fresh.quarantined == 1
        assert [p.name for p in (store_dir / "quarantine").iterdir()] \
            == [torn]
        assert resumed.table.long() == clean_table

    def test_resume_after_store_corruption(self, clean_table, tmp_path):
        store_dir = tmp_path / "store"
        # Three runs, three bundles: shards {0, 1}, {2} and {3}.
        for max_shards in (2, 1, None):
            run_study(mc_spec(), shards=4, max_shards=max_shards,
                      store=StudyStore(cache_dir=store_dir))
        store = StudyStore(cache_dir=store_dir)
        key, _, _ = store.run_record(mc_spec()).shards[(2, 3)]
        victim = store.bundle_path(key)
        victim.write_bytes(b"\x00" * 64)  # torn by a killed writer
        report = run_study(mc_spec(), shards=4, store=store)
        assert report.table.long() == clean_table
        assert report.reused_shards == 3 and report.computed_shards == 1
        assert report.computed_ranges == ((2, 3),)
        assert store.quarantined == 1
        assert list((store_dir / "quarantine").iterdir())
        events = read_journal(store_dir / "run.jsonl")
        starts = [i for i, e in enumerate(events) if e["event"] == "run_start"]
        assert sum(1 for e in events[starts[-1]:]
                   if e["event"] == "reused") == 3

    def test_multi_fault_storm_still_bit_identical(self, clean_table):
        report = run_study(
            mc_spec(), jobs=2, shards=4, retries=3, backoff_base=0.0,
            shard_timeout=2.0,
            context=fault_context(
                FaultSpec(shard=0, attempt=1, action="raise"),
                FaultSpec(shard=1, attempt=1, action="crash"),
                FaultSpec(shard=2, attempt=1, action="hang", hang_s=60.0),
                FaultSpec(shard=0, attempt=2, action="raise")))
        assert report.table.long() == clean_table
        assert not report.failed_shards


# -- exhaustion: quarantine vs. abort -----------------------------------------


class TestExhaustion:
    def test_keep_going_quarantines_with_provenance(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        report = run_study(mc_spec(), shards=4, retries=1, backoff_base=0.0,
                           keep_going=True, journal=journal,
                           context=fault_context(
                               FaultSpec(shard=3, attempt=1),
                               FaultSpec(shard=3, attempt=2)))
        assert report.partial
        shard, = report.failed_shards
        assert (shard.index, shard.attempts, shard.kind) == (3, 2, "error")
        assert "FaultInjected" in shard.error
        assert len(report.table) == 3  # the other shards' cases survive
        failure, = (e for e in read_journal(journal)
                    if e["event"] == "failure")
        assert failure["attempts"] == 2

    def test_abort_reraises_engine_exception(self):
        with pytest.raises(FaultInjected):
            run_study(mc_spec(), shards=4, retries=1, backoff_base=0.0,
                      context=fault_context(FaultSpec(shard=0, attempt=1),
                                            FaultSpec(shard=0, attempt=2)))

    def test_abort_persists_completed_shards(self, tmp_path):
        store_dir = tmp_path / "store"
        with pytest.raises(FaultInjected):
            run_study(mc_spec(), shards=4, backoff_base=0.0,
                      store=StudyStore(cache_dir=store_dir),
                      context=fault_context(FaultSpec(shard=3)))
        # shards 0-2 completed before the abort and are resumable
        resumed = run_study(mc_spec(), shards=4,
                            store=StudyStore(cache_dir=store_dir))
        assert resumed.reused_shards == 3

    def test_keyboard_interrupt_returns_partial_report(self, tmp_path):
        calls = []

        def explode(done, total, label):
            calls.append(done)
            if done == 2:
                raise KeyboardInterrupt

        store_dir = tmp_path / "store"
        report = run_study(mc_spec(), shards=4, progress=explode,
                           store=StudyStore(cache_dir=store_dir))
        assert report.interrupted and report.partial
        assert report.computed_shards == 2
        assert len(report.table) == 2
        events = read_journal(store_dir / "run.jsonl")
        assert any(e["event"] == "interrupt" for e in events)
        assert events[-1]["event"] == "run_end" and events[-1]["interrupted"]
        # completed shards were persisted; a resume finishes the run
        resumed = run_study(mc_spec(), shards=4,
                            store=StudyStore(cache_dir=store_dir))
        assert resumed.reused_shards == 2 and not resumed.partial


# -- shard-layout mismatch on resume ------------------------------------------


class TestLayoutMismatch:
    def test_resume_with_different_layout_warns(self, tmp_path, monkeypatch):
        # The warning fires once per process per fingerprint; an earlier
        # test of the same spec and layouts must not swallow this one.
        monkeypatch.setattr(runner, "_WARNED_LAYOUTS", set())
        store_dir = tmp_path / "store"
        run_study(mc_spec(), shards=4, store=StudyStore(cache_dir=store_dir))
        with pytest.warns(RuntimeWarning, match="different.*shard layout"):
            report = run_study(mc_spec(), shards=2,
                               store=StudyStore(cache_dir=store_dir))
        assert report.reused_shards == 0  # nothing matched the new layout
        events = read_journal(store_dir / "run.jsonl")
        mismatch = [e for e in events if e["event"] == "layout_mismatch"]
        assert mismatch and len(mismatch[-1]["stored"]) == 4
        assert len(mismatch[-1]["current"]) == 2

    def test_matching_layout_does_not_warn(self, tmp_path, recwarn):
        store_dir = tmp_path / "store"
        run_study(mc_spec(), shards=4, store=StudyStore(cache_dir=store_dir))
        run_study(mc_spec(), shards=4, store=StudyStore(cache_dir=store_dir))
        assert not [w for w in recwarn.list
                    if issubclass(w.category, RuntimeWarning)]

    def test_stored_ranges_lists_spec_shards_only(self, tmp_path):
        store = StudyStore(cache_dir=tmp_path)
        run_study(mc_spec(), shards=2, store=store)
        assert store.run_record(mc_spec()).stored_ranges() == [(0, 2), (2, 4)]
        other = parse_study(MC_TEXT.replace("seed: 7", "seed: 8"))
        assert store.run_record(other).stored_ranges() == []


# -- CLI: exit codes 0/3/4 and the fault-plan flag ----------------------------


class TestSupervisedCli:
    def _write_study(self, tmp_path) -> Path:
        path = tmp_path / "tiny.yaml"
        path.write_text(MC_TEXT)
        return path

    def _write_plan(self, tmp_path, document) -> Path:
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(document))
        return path

    def test_exit_0_recovered_run_parity(self, tmp_path, capsys):
        study = self._write_study(tmp_path)
        code = main(["study", "run", str(study), "--quiet",
                     "--json", str(tmp_path / "clean.json")])
        assert code == 0
        plan = self._write_plan(tmp_path, {
            "faults": [{"shard": 0, "attempt": 1, "action": "raise"}]})
        code = main(["study", "run", str(study), "--quiet",
                     "--retries", "2", "--fault-plan", str(plan),
                     "--store", str(tmp_path / "store"),
                     "--json", str(tmp_path / "faulted.json")])
        assert code == 0
        clean = json.loads((tmp_path / "clean.json").read_text())
        faulted = json.loads((tmp_path / "faulted.json").read_text())
        assert faulted["rows"] == clean["rows"]
        assert (tmp_path / "store" / "run.jsonl").exists()

    def test_exit_3_partial(self, tmp_path):
        study = self._write_study(tmp_path)
        code = main(["study", "run", str(study), "--quiet",
                     "--store", str(tmp_path / "store"),
                     "--shards", "4", "--max-shards", "1"])
        assert code == 3

    def test_exit_4_completed_with_failed_shards(self, tmp_path, capsys):
        study = self._write_study(tmp_path)
        plan = self._write_plan(tmp_path, {
            "faults": [{"shard": 1, "attempt": 1, "action": "raise"},
                       {"shard": 1, "attempt": 2, "action": "raise"}]})
        code = main(["study", "run", str(study), "--quiet", "--shards", "4",
                     "--retries", "1", "--keep-going",
                     "--fault-plan", str(plan)])
        assert code == 4
        err = capsys.readouterr().err
        assert "failed shard 1" in err
        assert "FaultInjected" in err

    def test_exit_1_abort_without_keep_going(self, tmp_path, capsys):
        study = self._write_study(tmp_path)
        plan = self._write_plan(tmp_path, {
            "faults": [{"shard": 1, "attempt": 1, "action": "raise"}]})
        code = main(["study", "run", str(study), "--quiet", "--shards", "4",
                     "--fault-plan", str(plan)])
        assert code == 1
        assert "injected raise" in capsys.readouterr().err

    def test_bad_fault_plan_rejected(self, tmp_path, capsys):
        study = self._write_study(tmp_path)
        plan = self._write_plan(tmp_path, {"faults": [{"shard": 0,
                                                       "action": "melt"}]})
        code = main(["study", "run", str(study), "--quiet",
                     "--fault-plan", str(plan)])
        assert code == 1
        assert "unknown fault action" in capsys.readouterr().err

    def test_negative_retries_rejected(self, tmp_path):
        study = self._write_study(tmp_path)
        with pytest.raises(SystemExit):
            main(["study", "run", str(study), "--retries", "-1"])
