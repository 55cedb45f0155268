"""Contract tests of the scenario-planning service (ISSUE-8).

The pinned behaviours, in order of the issue's acceptance criteria:

* **overload** — with the queue bound at N, N+k concurrent submissions
  yield exactly k 429s carrying ``Retry-After``, and no accepted job is
  dropped;
* **deadline** — an expiring job lands in the explicit ``"partial"``
  state and its completed shards stay retrievable (HTTP 206);
* **crash safety** — killing the server and restarting against the same
  store recovers every journaled job and serves a bit-identical result;
* plus the edge validation, dedup/idempotency, per-client caps, client
  cancellation, drain and HTTP plumbing around them.
"""

import json
import threading
import time
from pathlib import Path

import pytest

from repro.errors import AdmissionError, ConfigurationError, UnknownJobError
from repro.service import (
    JOB_STATES,
    TERMINAL_STATES,
    JobQueue,
    JobRequest,
    JobStore,
    ScenarioService,
    ServiceApp,
)
from repro.study import parse_study, run_study

STUDIES_DIR = Path(__file__).resolve().parents[1] / "studies"

MC_DOC = {
    "name": "mc-tiny",
    "engine": "mc",
    "seed": 7,
    "axes": {"sigma_db": [2.0, 4.0], "isd_m": [2000.0, 2400.0]},
    "fixed": {"n_repeaters": 8, "trials": 12, "resolution_m": 50.0},
}


def mc_document(**overrides):
    return dict(MC_DOC, **overrides)


NETWORK_DOC = {
    "name": "network-tiny",
    "engine": "network",
    "seed": 0,
    "axes": {"energy_budget_w_per_km": [0.0, 200.0]},
    "fixed": {"graph": "demo", "segments": 8, "resolution_m": 50.0},
}


def wait_for(predicate, timeout_s=15.0, poll_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll_s)
    return False


def wait_terminal(queue, job_id, timeout_s=15.0):
    assert wait_for(
        lambda: queue.get(job_id).state in TERMINAL_STATES, timeout_s)
    return queue.get(job_id)


# -- request schema (the 400 gate) --------------------------------------------


class TestJobRequest:
    def test_accepts_minimal_document(self):
        request = JobRequest.from_mapping({"study": MC_DOC}, client="c")
        assert request.jobs == 1 and request.client == "c"
        assert request.spec().name == "mc-tiny"

    def test_rejects_non_mapping_body(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            JobRequest.from_mapping([1, 2])

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown request keys"):
            JobRequest.from_mapping({"study": MC_DOC, "priority": 9})

    def test_rejects_missing_study(self):
        with pytest.raises(ConfigurationError, match="'study' document"):
            JobRequest.from_mapping({"jobs": 2})

    def test_rejects_invalid_study_document(self):
        with pytest.raises(ConfigurationError):
            JobRequest.from_mapping({"study": {"name": "x"}})

    @pytest.mark.parametrize("payload", [
        {"jobs": 0}, {"jobs": 99}, {"jobs": True},
        {"shards": 0}, {"retries": -1}, {"retries": 17},
        {"shard_timeout_s": 0}, {"deadline_s": -5.0},
        {"backend": 7}, {"backend": "no-such-backend"},
        {"backend": "numpy"},
    ])
    def test_rejects_out_of_range_options(self, payload):
        with pytest.raises(ConfigurationError):
            JobRequest.from_mapping({"study": MC_DOC, **payload})

    @pytest.mark.parametrize("name", ["deadline_s", "shard_timeout_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_rejects_non_finite_numbers(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            JobRequest.from_mapping({"study": MC_DOC, name: value})

    def test_options_round_trip_rebuilds_request(self):
        request = JobRequest.from_mapping(
            {"study": MC_DOC, "jobs": 2, "shards": 4, "retries": 1,
             "deadline_s": 60.0}, client="c")
        rebuilt = JobRequest(document=request.document, client="c",
                             **request.options())
        assert rebuilt == request

    def test_accepts_network_study_document(self):
        request = JobRequest.from_mapping({"study": NETWORK_DOC}, client="c")
        assert request.spec().engine == "network"
        # Missing required engine parameter is still a 400-class error.
        bad = {k: v for k, v in NETWORK_DOC.items() if k != "axes"}
        with pytest.raises(ConfigurationError):
            JobRequest.from_mapping(
                {"study": dict(bad, axes={"demand_scale": [1.0]})})

    def test_network_submission_runs_to_completion(self, tmp_path):
        queue = JobQueue(tmp_path, workers=1)
        queue.start()
        try:
            job, _ = queue.submit(JobRequest.from_mapping(
                {"study": NETWORK_DOC, "shards": 2}, client="c"))
            assert wait_terminal(queue, job.job).state == "done"
            _, document = queue.result(job.job)
            reference = run_study(parse_study(json.dumps(NETWORK_DOC))) \
                .table.wide()
            rows = document["rows"]
            assert len(rows) == 2
            # Served rows are bit-identical to an inline run of the spec.
            assert [r["total_cost_meur"] for r in rows] \
                == reference["total_cost_meur"]
            assert [r["sleeping_segments"] for r in rows] \
                == reference["sleeping_segments"]
        finally:
            queue.drain(5.0)


# -- admission control (overload semantics) -----------------------------------


class TestAdmission:
    def test_overload_yields_exactly_k_rejections(self, tmp_path):
        """N-bound queue, N+k concurrent submissions -> exactly k 429s."""
        bound, extra = 4, 3
        queue = JobQueue(tmp_path, workers=1, max_queue=bound,
                         max_per_client=bound + extra)
        # Workers are *not* started: every admitted job stays queued, so
        # admission is deterministic.
        accepted, rejected = [], []
        lock = threading.Lock()

        def submit(index):
            request = JobRequest.from_mapping(
                {"study": mc_document(seed=100 + index)}, client="c")
            try:
                job, created = queue.submit(request)
                with lock:
                    accepted.append(job.job)
            except AdmissionError as exc:
                with lock:
                    rejected.append(exc)

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(bound + extra)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(accepted) == bound
        assert len(rejected) == extra
        # Every rejection carries a positive Retry-After estimate.
        assert all(exc.retry_after_s >= 1.0 for exc in rejected)
        # No accepted job was dropped: all are queued and retained.
        assert all(queue.get(job_id).state == "queued"
                   for job_id in accepted)

    def test_per_client_cap(self, tmp_path):
        queue = JobQueue(tmp_path, workers=1, max_queue=10, max_per_client=2)
        for index in range(2):
            queue.submit(JobRequest.from_mapping(
                {"study": mc_document(seed=index)}, client="alice"))
        with pytest.raises(AdmissionError, match="in flight"):
            queue.submit(JobRequest.from_mapping(
                {"study": mc_document(seed=99)}, client="alice"))
        # A different client is unaffected by alice's cap.
        job, created = queue.submit(JobRequest.from_mapping(
            {"study": mc_document(seed=99)}, client="bob"))
        assert created

    def test_draining_queue_refuses_admission(self, tmp_path):
        queue = JobQueue(tmp_path, workers=1)
        queue.start()
        assert queue.drain(5.0)
        with pytest.raises(AdmissionError, match="draining"):
            queue.submit(JobRequest.from_mapping({"study": MC_DOC}))

    def test_constructor_rejects_degenerate_bounds(self, tmp_path):
        with pytest.raises(ConfigurationError):
            JobQueue(tmp_path, workers=0)
        with pytest.raises(ConfigurationError):
            JobQueue(tmp_path, max_queue=0)


# -- idempotent dedup ---------------------------------------------------------


class TestDedup:
    def test_identical_submission_coalesces_on_open_job(self, tmp_path):
        queue = JobQueue(tmp_path, workers=1, max_queue=2)
        request = JobRequest.from_mapping({"study": MC_DOC}, client="c")
        first, created_first = queue.submit(request)
        second, created_second = queue.submit(request)
        assert created_first and not created_second
        assert second.job == first.job
        # Coalescing consumed no queue capacity: the bound still admits one.
        queue.submit(JobRequest.from_mapping(
            {"study": mc_document(seed=8)}, client="c"))

    def test_finished_job_serves_resubmission(self, tmp_path):
        queue = JobQueue(tmp_path, workers=1)
        queue.start()
        try:
            request = JobRequest.from_mapping(
                {"study": MC_DOC, "shards": 4}, client="c")
            job, _ = queue.submit(request)
            assert wait_terminal(queue, job.job).state == "done"
            again, created = queue.submit(request)
            assert not created and again.job == job.job
            _, document = queue.result(again.job)
            assert len(document["rows"]) == 4
        finally:
            queue.drain(5.0)

    def test_different_seed_is_a_different_job(self, tmp_path):
        queue = JobQueue(tmp_path, workers=1, max_queue=4)
        first, _ = queue.submit(
            JobRequest.from_mapping({"study": MC_DOC}, client="c"))
        second, created = queue.submit(JobRequest.from_mapping(
            {"study": mc_document(seed=8)}, client="c"))
        assert created and second.job != first.job


class TestOneParsePerRequest:
    @pytest.fixture()
    def parses(self, monkeypatch):
        """Record the thread of every study document parse."""
        import repro.service.schemas as schemas

        calls = []
        parse = schemas.study_from_mapping

        def spy(document, source="<mapping>"):
            calls.append(threading.current_thread().name)
            return parse(document, source=source)

        monkeypatch.setattr(schemas, "study_from_mapping", spy)
        return calls

    def test_each_post_parses_once_and_jobs_never(self, tmp_path, parses):
        queue = JobQueue(tmp_path, workers=1)
        queue.start()
        app = ServiceApp(queue)
        body = json.dumps({"study": MC_DOC, "shards": 4}).encode()
        try:
            status, _, payload = app.dispatch("POST", "/jobs", body, "c")
            assert status == 201
            job_id = payload["job"]["job"]
            assert wait_terminal(queue, job_id).state == "done"
            assert parses == ["MainThread"]
            status, _, payload = app.dispatch("POST", "/jobs", body, "c")
            assert status == 200 and payload["job"]["job"] == job_id
            assert app.dispatch("GET", f"/jobs/{job_id}/result", b"",
                                "c")[0] == 200
        finally:
            queue.drain(5.0)
        assert parses == ["MainThread"] * 2

    def test_a_recovered_request_parses_once(self, tmp_path, parses):
        first = JobQueue(tmp_path, workers=1)
        job, _ = first.submit(JobRequest.from_mapping(
            {"study": MC_DOC, "shards": 4}, client="c"))
        first.jobstore.close()
        parses.clear()
        second = JobQueue(tmp_path, workers=1)
        second.start()
        try:
            assert wait_terminal(second, job.job).state == "done"
        finally:
            second.drain(5.0)
        # The replay parses the journaled document; running and rebuilding
        # its result reuse that spec.
        third = JobQueue(tmp_path, workers=1)
        third.start()
        try:
            _, document = third.result(job.job)
            assert len(document["rows"]) == 4
        finally:
            third.drain(5.0)
        assert parses == ["MainThread"] * 2


# -- distributed slice jobs (ISSUE-10) ----------------------------------------


class TestSliceJobs:
    def slice_request(self, index, of, **extra):
        return JobRequest.from_mapping(
            {"study": MC_DOC, "shards": 2,
             "shard_index": index, "shard_of": of, **extra}, client="c")

    def test_slice_fields_must_come_together(self):
        with pytest.raises(ConfigurationError, match="together"):
            JobRequest.from_mapping({"study": MC_DOC, "shard_index": 0})
        with pytest.raises(ConfigurationError, match="together"):
            JobRequest.from_mapping({"study": MC_DOC, "shard_of": 2})

    def test_slice_index_must_be_inside_the_split(self):
        with pytest.raises(ConfigurationError, match="shard_index"):
            JobRequest.from_mapping(
                {"study": MC_DOC, "shard_index": 2, "shard_of": 2})
        with pytest.raises(ConfigurationError, match="shard_of"):
            JobRequest.from_mapping(
                {"study": MC_DOC, "shard_index": 0, "shard_of": 0})

    def test_options_round_trip_preserves_the_slice(self):
        request = self.slice_request(1, 2)
        rebuilt = JobRequest.from_mapping(
            {"study": MC_DOC, **request.options()}, client="c")
        assert (rebuilt.shard_index, rebuilt.shard_of) == (1, 2)
        assert rebuilt.spec().compute_hash == request.spec().compute_hash

    def test_slice_jobs_complete_and_leave_signed_manifests(self, tmp_path):
        from repro.study.distributed import merge_manifests
        from repro.study.manifest import default_manifest_name, load_manifest

        queue = JobQueue(tmp_path, workers=1)
        queue.start()
        try:
            jobs = [queue.submit(self.slice_request(index, 2))[0]
                    for index in range(2)]
            for job in jobs:
                assert wait_terminal(queue, job.job).state == "done"
        finally:
            queue.drain(5.0)
        spec = parse_study(json.dumps(MC_DOC))
        paths = [tmp_path / "shards" / default_manifest_name(spec, index, 2)
                 for index in range(2)]
        manifests = [load_manifest(path) for path in paths]  # signatures ok
        assert sorted(m.worker for m in manifests) == [0, 1]
        # The attested slices merge bit-identically to an inline run.
        merged = merge_manifests(spec, paths).table.wide()
        assert merged == run_study(spec).table.wide()

    def test_slices_and_full_runs_never_coalesce(self, tmp_path):
        queue = JobQueue(tmp_path, workers=1, max_queue=4)
        full, _ = queue.submit(JobRequest.from_mapping(
            {"study": MC_DOC, "shards": 2}, client="c"))
        first, created_first = queue.submit(self.slice_request(0, 2))
        second, created_second = queue.submit(self.slice_request(1, 2))
        assert created_first and created_second
        assert len({full.job, first.job, second.job}) == 3
        # The same slice resubmitted does coalesce, as a full run would.
        again, created = queue.submit(self.slice_request(0, 2))
        assert not created and again.job == first.job


# -- deadlines ----------------------------------------------------------------


class TestDeadline:
    def test_expired_deadline_yields_partial_state(self, tmp_path):
        queue = JobQueue(tmp_path, workers=1)
        queue.start()
        try:
            job, _ = queue.submit(JobRequest.from_mapping(
                {"study": MC_DOC, "shards": 4, "deadline_s": 1e-6},
                client="c"))
            assert wait_terminal(queue, job.job).state == "partial"
            final, document = queue.result(job.job)
            # The partial result is explicit and retrievable (not an error).
            assert document is not None
            assert document["metadata"]["state"] == "partial"
        finally:
            queue.drain(5.0)

    def test_partial_job_completed_shards_are_retrievable(self, tmp_path):
        # Pre-compute two of four shards into the store, then let a
        # zero-deadline job reuse them: the partial table must contain
        # exactly those cases.
        from repro.study import StudyStore

        spec = parse_study(json.dumps(MC_DOC))
        store = StudyStore(cache_dir=tmp_path / "shards")
        reference = run_study(spec, shards=4, store=store,
                              max_shards=2).table
        assert len(reference) == 2

        queue = JobQueue(tmp_path, workers=1)
        queue.start()
        try:
            job, _ = queue.submit(JobRequest.from_mapping(
                {"study": MC_DOC, "shards": 4, "deadline_s": 1e-6},
                client="c"))
            assert wait_terminal(queue, job.job).state == "partial"
            _, document = queue.result(job.job)
            assert [row["case"] for row in document["rows"]] == \
                reference.long()["case"][::len(reference.metric_names)]
        finally:
            queue.drain(5.0)

    def test_deadline_survives_in_absolute_time(self, tmp_path):
        queue = JobQueue(tmp_path, workers=1, max_queue=2)
        job, _ = queue.submit(JobRequest.from_mapping(
            {"study": MC_DOC, "deadline_s": 3600.0}, client="c"))
        assert job.deadline_t == pytest.approx(time.time() + 3600.0, abs=5.0)


# -- engine calls per job -----------------------------------------------------


class TestEngineCalls:
    def test_robustness_job_is_a_few_batched_engine_calls(self, tmp_path,
                                                          monkeypatch):
        # A huge poll budget pins the grouping structure, not the host
        # speed: the first job of a shape probes with one shard, then runs
        # one group of the rest; a second job of the same shape on the
        # same queue is one group from the start.
        import yaml

        import repro.optimize.mc as mc
        import repro.study.runner as runner
        from repro.scenario.spec import Scenario

        calls = {"run_cases": 0, "ar1_min_scan": 0, "content_hash": 0}

        def counting(name, function):
            def counted(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return counted

        monkeypatch.setattr(runner, "_POLL_S", 1e9)
        monkeypatch.setattr(runner, "run_cases",
                            counting("run_cases", runner.run_cases))
        # The binding the Monte-Carlo engine calls (the spy's reach is
        # pinned in tests/test_attempt_groups.py).
        monkeypatch.setattr(mc, "ar1_min_scan", counting(
            "ar1_min_scan", mc.ar1_min_scan))
        monkeypatch.setattr(Scenario, "content_hash", property(counting(
            "content_hash", Scenario.content_hash.fget)))
        document = yaml.safe_load(
            (STUDIES_DIR / "robustness_grid.yaml").read_text())
        queue = JobQueue(tmp_path, workers=1)
        queue.start()
        try:
            job, _ = queue.submit(JobRequest.from_mapping(
                {"study": document}, client="c"))
            assert wait_terminal(queue, job.job).state == "done"
            # 27 cases in 16 shards; 3 scenarios, 9 shadowing draws on
            # one trial stream.
            assert calls["run_cases"] <= 2
            assert 1 <= calls["ar1_min_scan"] <= 10
            assert calls["content_hash"] <= 6
            calls.update(run_cases=0, ar1_min_scan=0)
            again, _ = queue.submit(JobRequest.from_mapping(
                {"study": dict(document, seed=document["seed"] + 1)},
                client="c"))
            assert wait_terminal(queue, again.job).state == "done"
        finally:
            queue.drain(5.0)
        assert (calls["run_cases"], calls["ar1_min_scan"]) == (1, 1)

    def test_first_job_on_each_thread_is_at_most_two_engine_calls(
            self, tmp_path, monkeypatch):
        # Two worker threads at the real poll budget, each charged a
        # modelled thread CPU time per engine call: a fixed cost per call,
        # a cost per case, the shadowing draw on a job's first call and the
        # first profile evaluations once per process.  The first probe
        # carries those one-off costs over its 2 cases, so its pace caps
        # the next group at 14 of the 25 remaining cases; the rest joins
        # that group rather than running as a third call.  However the
        # threads interleave, a group is sized from a pace at least that
        # fast, so the bounds hold for every schedule.
        import yaml

        import repro.study.runner as runner

        cpu: dict[int, float] = {}
        seeds: set[int] = set()
        calls: list[tuple[str, int]] = []
        lock = threading.Lock()
        run_cases = runner.run_cases

        def charged(engine, cases, case_seeds, context=None):
            thread = threading.get_ident()
            cost = 1.5e-3 + 0.5e-3 * len(cases)
            with lock:
                if not seeds:
                    cost += 2.5e-3
                if case_seeds[0] not in seeds:
                    cost += 2e-3
                    seeds.add(case_seeds[0])
                calls.append((threading.current_thread().name,
                              case_seeds[0]))
            cpu[thread] = cpu.get(thread, 0.0) + cost
            return run_cases(engine, cases, case_seeds, context=context)

        monkeypatch.setattr(runner, "run_cases", charged)
        monkeypatch.setattr(time, "thread_time",
                            lambda: cpu.get(threading.get_ident(), 0.0))
        document = yaml.safe_load(
            (STUDIES_DIR / "robustness_grid.yaml").read_text())
        queue = JobQueue(tmp_path, workers=2, max_queue=8, max_per_client=8)
        queue.start()
        try:
            jobs = [queue.submit(JobRequest.from_mapping(
                {"study": dict(document, seed=seed)}, client="c"))[0]
                for seed in range(8)]
            for job in jobs:
                assert wait_terminal(queue, job.job).state == "done"
        finally:
            queue.drain(5.0)
        per_job: dict[tuple[str, int], int] = {}
        for key in calls:
            per_job[key] = per_job.get(key, 0) + 1
        firsts = {}
        for thread, seed in calls:
            firsts.setdefault(thread, seed)
        for (thread, seed), count in per_job.items():
            assert count <= (2 if firsts[thread] == seed else 1), per_job

    def test_steady_state_robustness_job_writes_few_bundles(
            self, tmp_path, monkeypatch):
        # At the real poll budget: a later job of a shape groups its shards
        # by the measured pace, and each group is one store write.
        import yaml

        from repro.study import StudyStore

        writes = []
        put_bundle = StudyStore.put_bundle

        def spy(self, spec, members):
            writes.append(len(members))
            return put_bundle(self, spec, members)

        monkeypatch.setattr(StudyStore, "put_bundle", spy)
        document = yaml.safe_load(
            (STUDIES_DIR / "robustness_grid.yaml").read_text())
        queue = JobQueue(tmp_path, workers=1)
        queue.start()
        try:
            for seed in (1, 2):  # the first job of the shape probes
                writes.clear()
                job, _ = queue.submit(JobRequest.from_mapping(
                    {"study": dict(document, seed=seed)}, client="c"))
                assert wait_terminal(queue, job.job).state == "done"
        finally:
            queue.drain(5.0)
        assert sum(writes) == 16  # every shard stored exactly once
        assert 1 <= len(writes) <= 3


# -- cancellation -------------------------------------------------------------


class TestCancel:
    def test_cancel_queued_job(self, tmp_path):
        queue = JobQueue(tmp_path, workers=1, max_queue=2)
        job, _ = queue.submit(
            JobRequest.from_mapping({"study": MC_DOC}, client="c"))
        cancelled, accepted = queue.cancel(job.job)
        assert accepted and cancelled.state == "cancelled"
        # Terminal: a second cancel is refused.
        _, again = queue.cancel(job.job)
        assert not again

    def test_cancel_unknown_job(self, tmp_path):
        queue = JobQueue(tmp_path, workers=1)
        with pytest.raises(UnknownJobError):
            queue.cancel("deadbeef")

    def test_cancelled_queued_job_never_runs(self, tmp_path):
        queue = JobQueue(tmp_path, workers=1, max_queue=4)
        jobs = [queue.submit(JobRequest.from_mapping(
            {"study": mc_document(seed=index)}, client="c"))[0]
            for index in range(2)]
        queue.cancel(jobs[1].job)
        queue.start()
        try:
            assert wait_terminal(queue, jobs[0].job).state == "done"
            assert queue.get(jobs[1].job).state == "cancelled"
            assert queue.get(jobs[1].job).started_t is None
        finally:
            queue.drain(5.0)


# -- failure provenance -------------------------------------------------------


class TestFailure:
    def test_engine_error_lands_in_failed_state(self, tmp_path):
        # An axes value the MC engine rejects at run time (negative ISD).
        document = mc_document(axes={"sigma_db": [2.0],
                                     "isd_m": [-2000.0]})
        queue = JobQueue(tmp_path, workers=1)
        queue.start()
        try:
            job, _ = queue.submit(
                JobRequest.from_mapping({"study": document}, client="c"))
            final = wait_terminal(queue, job.job)
            assert final.state == "failed"
            assert final.error
            _, document_out = queue.result(job.job)
            assert document_out is None
        finally:
            queue.drain(5.0)


# -- crash safety -------------------------------------------------------------


class TestCrashRecovery:
    def test_restart_recovers_open_jobs_bit_identically(self, tmp_path):
        request_payload = {"study": MC_DOC, "shards": 4}
        # "Crash" before any worker ran: submit with no workers started,
        # then abandon the queue object (jobs.jsonl has no terminal line).
        first = JobQueue(tmp_path, workers=1)
        job, _ = first.submit(
            JobRequest.from_mapping(request_payload, client="c"))
        first.jobstore.close()

        # The uninterrupted reference run, in a store of its own.
        reference = run_study(parse_study(json.dumps(MC_DOC)),
                              shards=4).table.to_document()

        second = JobQueue(tmp_path, workers=1)
        second.start()
        try:
            final = wait_terminal(second, job.job)
            assert final.job == job.job and final.state == "done"
            _, document = second.result(job.job)
            assert document["rows"] == reference["rows"]
        finally:
            assert second.drain(10.0)

        # Third start: terminal job is visible and its result rebuilds
        # from the stored shards without recomputation, bit-identically.
        third = JobQueue(tmp_path, workers=1)
        third.start()
        try:
            recovered, rebuilt = third.result(job.job)
            assert recovered.state == "done"
            assert rebuilt["rows"] == document["rows"]
        finally:
            third.drain(5.0)

    def test_recovers_a_job_journaled_with_a_backend_option(self, tmp_path):
        # A jobs.jsonl written when requests still carried a kernel
        # backend: the option is ignored and the job finishes normally.
        store = JobStore(tmp_path / "jobs.jsonl")
        spec = parse_study(json.dumps(MC_DOC))
        store.job_submitted(
            job="old", study=spec.name, compute_hash=spec.compute_hash,
            client="c", document=MC_DOC,
            options={"jobs": 1, "shards": 4, "retries": 0,
                     "shard_timeout_s": None, "deadline_s": None,
                     "backend": "numpy", "shard_index": None,
                     "shard_of": None},
            deadline_t=None)
        store.close()
        queue = JobQueue(tmp_path, workers=1)
        queue.start()
        try:
            assert queue.get("old").request.shards == 4
            assert wait_terminal(queue, "old").state == "done"
            _, document = queue.result("old")
            reference = run_study(spec, shards=4).table.to_document()
            assert document["rows"] == reference["rows"]
        finally:
            assert queue.drain(10.0)

    def test_replay_folds_lifecycle_events(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        store.service_start(workers=1, max_queue=8, max_per_client=4,
                            recovered=0)
        store.job_submitted(job="aaa", study="s", compute_hash="h1",
                            client="c", document={"name": "s"},
                            options={"jobs": 1}, deadline_t=None)
        store.job_started(job="aaa")
        store.job_submitted(job="bbb", study="s", compute_hash="h2",
                            client="c", document={"name": "s"},
                            options={"jobs": 1}, deadline_t=None)
        store.job_finished(job="aaa", state="done", cases=4, wall_s=0.1,
                           error=None)
        store.job_cancelled(job="bbb", was="queued")
        store.close()
        records, skipped = JobStore(path).replay()
        assert skipped == 0
        assert {job: record["state"] for job, record in records.items()} \
            == {"aaa": "done", "bbb": "cancelled"}

    def test_replay_requeue_resets_to_queued(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        store = JobStore(path)
        store.job_submitted(job="aaa", study="s", compute_hash="h",
                            client="c", document={"name": "s"},
                            options={}, deadline_t=None)
        store.job_started(job="aaa")  # crashed while running
        store.close()
        records, _ = JobStore(path).replay()
        assert {job: record["state"] for job, record in records.items()} \
            == {"aaa": "running"}

    def test_disabled_store_replays_empty(self):
        assert JobStore(None).replay() == ({}, 0)


# -- drain --------------------------------------------------------------------


class TestDrain:
    def test_clean_drain_finishes_queued_work(self, tmp_path):
        queue = JobQueue(tmp_path, workers=1, max_queue=4)
        jobs = [queue.submit(JobRequest.from_mapping(
            {"study": mc_document(seed=index)}, client="c"))[0]
            for index in range(2)]
        queue.start()
        assert queue.drain(30.0)
        assert all(queue.get(job.job).state == "done" for job in jobs)

    def test_drain_checkpoints_running_job_as_partial(self, tmp_path):
        # trials high enough that the run outlives a zero-grace drain.
        document = mc_document(fixed={"n_repeaters": 8, "trials": 4000,
                                      "resolution_m": 50.0})
        queue = JobQueue(tmp_path, workers=1)
        queue.start()
        job, _ = queue.submit(JobRequest.from_mapping(
            {"study": document, "shards": 4}, client="c"))
        assert wait_for(lambda: queue.get(job.job).state == "running")
        assert not queue.drain(0.0)
        final = queue.get(job.job)
        assert final.state == "partial"
        assert final.cancel_cause == "drain"


# -- HTTP app (transport-free) ------------------------------------------------


class TestServiceApp:
    @pytest.fixture()
    def app(self, tmp_path):
        queue = JobQueue(tmp_path, workers=1, max_queue=2)
        queue.start()
        yield ServiceApp(queue)
        queue.drain(5.0)

    def submit(self, app, document=MC_DOC, client="c", **options):
        body = json.dumps({"study": document, **options}).encode()
        return app.dispatch("POST", "/jobs", body, client)

    def test_health_and_ready(self, app):
        status, _, payload = app.dispatch("GET", "/healthz", b"", "c")
        assert status == 200 and payload["workers"] == 1
        assert app.dispatch("GET", "/readyz", b"", "c")[0] == 200

    def test_submit_poll_result_lifecycle(self, app):
        status, _, payload = self.submit(app, shards=4)
        assert status == 201 and payload["created"]
        job_id = payload["job"]["job"]
        assert payload["job"]["state"] in ("queued", "running")

        def done():
            code, _, body = app.dispatch(
                "GET", f"/jobs/{job_id}/result", b"", "c")
            return code == 200 and len(body["result"]["rows"]) == 4
        assert wait_for(done)
        status, _, payload = self.submit(app, shards=4)
        assert status == 200 and not payload["created"]

    def test_invalid_body_is_400(self, app):
        assert app.dispatch("POST", "/jobs", b"not json", "c")[0] == 400
        assert app.dispatch("POST", "/jobs", b"[]", "c")[0] == 400
        status, _, payload = self.submit(app, document={"name": "x"})
        assert status == 400 and "error" in payload

    @pytest.mark.parametrize("name", ["deadline_s", "shard_timeout_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_json_number_is_400(self, app, name, value):
        # The body carries the literal NaN / Infinity, which json.loads
        # parses; the edge must refuse it before the queue sees it.
        body = json.dumps({"study": MC_DOC, name: value}).encode()
        assert b"NaN" in body or b"Infinity" in body
        status, _, payload = app.dispatch("POST", "/jobs", body, "c")
        assert status == 400 and name in payload["error"]
        assert app.dispatch("GET", "/jobs", b"", "c")[2]["jobs"] == []

    def test_overload_is_429_with_retry_after(self, tmp_path):
        queue = JobQueue(tmp_path / "np", workers=1, max_queue=1,
                         max_per_client=8)  # workers not started
        app = ServiceApp(queue)
        assert self.submit(app, mc_document(seed=1))[0] == 201
        status, headers, payload = self.submit(app, mc_document(seed=2))
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert payload["retry_after_s"] >= 1.0

    def test_unknown_job_is_404(self, app):
        assert app.dispatch("GET", "/jobs/feed", b"", "c")[0] == 404
        assert app.dispatch("GET", "/jobs/feed/result", b"", "c")[0] == 404
        assert app.dispatch("DELETE", "/jobs/feed", b"", "c")[0] == 404

    def test_unrouted_and_misrouted(self, app):
        assert app.dispatch("GET", "/nope", b"", "c")[0] == 404
        status, headers, _ = app.dispatch("DELETE", "/healthz", b"", "c")
        assert status == 405 and "GET" in headers["Allow"]

    def test_cancelled_result_is_410(self, app):
        # Submit against a stopped-worker queue clone is overkill here;
        # cancel a queued job before its worker picks it up by flooding
        # a one-worker queue.
        status, _, payload = self.submit(
            app, mc_document(fixed={"n_repeaters": 8, "trials": 4000,
                                    "resolution_m": 50.0}))
        first = payload["job"]["job"]
        status, _, payload = self.submit(app, mc_document(seed=11))
        second = payload["job"]["job"]
        status, _, _ = app.dispatch("DELETE", f"/jobs/{second}", b"", "c")
        assert status == 200
        assert wait_for(lambda: app.dispatch(
            "GET", f"/jobs/{second}/result", b"", "c")[0] == 410)
        status, _, _ = app.dispatch("DELETE", f"/jobs/{second}", b"", "c")
        assert status == 409

    def test_draining_submit_is_503(self, app):
        app.queue.drain(5.0)
        status, headers, _ = self.submit(app)
        assert status == 503 and "Retry-After" in headers
        assert app.dispatch("GET", "/readyz", b"", "c")[0] == 503

    def test_job_listing(self, app):
        self.submit(app)
        status, _, payload = app.dispatch("GET", "/jobs", b"", "c")
        assert status == 200 and len(payload["jobs"]) == 1
        view = payload["jobs"][0]
        assert view["study"] == "mc-tiny" and view["state"] in JOB_STATES


# -- retention ----------------------------------------------------------------


class TestRetention:
    def test_oldest_terminal_jobs_are_pruned(self, tmp_path):
        queue = JobQueue(tmp_path, workers=1, max_queue=4, retain=1)
        queue.start()
        try:
            first, _ = queue.submit(JobRequest.from_mapping(
                {"study": mc_document(seed=1)}, client="c"))
            wait_terminal(queue, first.job)
            second, _ = queue.submit(JobRequest.from_mapping(
                {"study": mc_document(seed=2)}, client="c"))
            wait_terminal(queue, second.job)
            with pytest.raises(UnknownJobError):
                queue.get(first.job)
            assert queue.get(second.job).state == "done"
        finally:
            queue.drain(5.0)


# -- the `repro serve` CLI ----------------------------------------------------


class TestServeCLI:
    def test_parser_defaults(self):
        from repro.cli import build_serve_parser
        args = build_serve_parser().parse_args([])
        assert args.port == 8765 and args.store is None
        assert args.workers == 2 and args.queue_depth == 8

    def test_bind_failure_is_exit_1(self, capsys):
        from repro.cli import serve_main
        assert serve_main(["--host", "203.0.113.1", "--port", "1"]) == 1
        assert "cannot bind" in capsys.readouterr().err

    def test_sigterm_drains_to_exit_0(self, tmp_path, capsys):
        import os
        import signal as signal_module
        from repro.cli import serve_main

        previous = signal_module.getsignal(signal_module.SIGTERM)
        threading.Timer(
            1.0, lambda: os.kill(os.getpid(),
                                 signal_module.SIGTERM)).start()
        try:
            assert serve_main(["--port", "0", "--store", str(tmp_path),
                               "--workers", "1",
                               "--drain-grace", "5"]) == 0
        finally:
            signal_module.signal(signal_module.SIGTERM, previous)
            signal_module.signal(signal_module.SIGINT,
                                 signal_module.default_int_handler)
        assert "serving on" in capsys.readouterr().err


# -- HTTP server (socket end-to-end) ------------------------------------------


class TestHTTPServer:
    @pytest.fixture()
    def service(self, tmp_path):
        service = ScenarioService("127.0.0.1", 0, tmp_path, workers=1)
        service.start()
        thread = threading.Thread(target=service.serve_forever, daemon=True)
        thread.start()
        yield service
        service.initiate_shutdown()
        thread.join(timeout=15)
        assert not thread.is_alive()

    def call(self, service, method, path, payload=None, client="e2e"):
        import urllib.error
        import urllib.request
        url = f"http://127.0.0.1:{service.port}{path}"
        data = json.dumps(payload).encode() if payload is not None else None
        request = urllib.request.Request(
            url, data=data, method=method, headers={"X-Client-Id": client})
        try:
            with urllib.request.urlopen(request, timeout=10) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_full_job_lifecycle_over_http(self, service):
        status, payload = self.call(service, "POST", "/jobs",
                                    {"study": MC_DOC, "shards": 4})
        assert status == 201
        job_id = payload["job"]["job"]

        def done():
            code, body = self.call(service, "GET", f"/jobs/{job_id}/result")
            return code == 200 and len(body["result"]["rows"]) == 4
        assert wait_for(done)
        # The served document matches a direct in-process run row for row.
        _, body = self.call(service, "GET", f"/jobs/{job_id}/result")
        direct = run_study(parse_study(json.dumps(MC_DOC)),
                           shards=4).table.to_document()
        assert body["result"]["rows"] == direct["rows"]

    def test_oversized_body_is_413(self, service):
        import http.client
        connection = http.client.HTTPConnection("127.0.0.1", service.port,
                                                timeout=10)
        try:
            connection.putrequest("POST", "/jobs")
            connection.putheader("Content-Length", str(4 << 20))
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 413
        finally:
            connection.close()
