"""Supervised job queue: bounded admission, deadlines, dedup, drain.

The queue is the robustness core of the scenario-planning service.  Its
contract, in order of importance:

* **bounded, always** — at most ``max_queue`` jobs wait and at most
  ``workers`` run; a submission beyond either the queue bound or the
  per-client in-flight cap raises :class:`~repro.errors.AdmissionError`
  (HTTP 429 + ``Retry-After``) instead of growing memory;
* **idempotent** — submissions are keyed by
  :attr:`~repro.study.spec.StudySpec.compute_hash`; an identical request
  coalesces onto the open job computing it, or is served by the finished
  one (whose shards live in the :class:`~repro.study.results.StudyStore`);
* **deadline-aware** — a job carrying ``deadline_s`` is cancelled through
  the runner's ``cancel`` hook when its absolute deadline passes and lands
  in the explicit ``"partial"`` state with every completed shard
  retrievable — deadline expiry is a *graceful degradation*, not an error;
* **crash-safe** — every transition is journaled to ``jobs.jsonl``
  (:mod:`repro.service.jobstore`); :meth:`JobQueue.recover` replays it so
  a killed server re-enqueues open jobs and resumes them from their stored
  shards bit-identically (the CRN contract extends to the service layer);
* **drainable** — :meth:`JobQueue.drain` stops admissions, lets in-flight
  jobs finish within a grace budget, then checkpoints the stragglers
  (cancel → ``"partial"``, shards persisted) and stops the workers.

Job lifecycle state machine::

    queued ──► running ──► done        (all shards complete)
      │           ├──────► partial     (deadline / drain checkpoint)
      │           ├──────► failed      (engine error, retries exhausted)
      │           └──────► cancelled   (client DELETE while running)
      └──────────────────► cancelled   (client DELETE while queued)

``queued`` and ``running`` are the *open* states a restart re-enqueues;
the other four are terminal.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import (
    AdmissionError,
    ConfigurationError,
    ReproError,
    UnknownJobError,
)
from repro.service.jobstore import JobStore
from repro.service.schemas import JobRequest, JobView
from repro.study.distributed import run_shard_slice
from repro.study.journal import RunJournal
from repro.study.results import StudyStore
from repro.study.runner import run_study

__all__ = ["JOB_STATES", "TERMINAL_STATES", "Job", "JobQueue"]

#: Every job lifecycle state, open states first.
JOB_STATES = ("queued", "running", "done", "partial", "failed", "cancelled")

#: States a job can never leave (everything but ``queued``/``running``).
TERMINAL_STATES = ("done", "partial", "failed", "cancelled")

#: Poll interval [s] of the drain loop.
_DRAIN_POLL_S = 0.05


@dataclass
class Job:
    """Mutable queue-side state of one admitted job.

    All mutation happens under the queue's lock; HTTP handlers only ever
    see the :meth:`view` projection.

    Attributes
    ----------
    job:
        Job id (``/jobs/{id}`` path segment).
    request:
        The validated :class:`~repro.service.schemas.JobRequest`.
    compute_hash:
        The study's :attr:`~repro.study.spec.StudySpec.compute_hash` — the
        dedup key.
    state:
        One of :data:`JOB_STATES`.
    submitted_t / started_t / finished_t / deadline_t:
        Unix timestamps (absolute, so deadlines survive a restart).
    cases:
        Total case count of the study.
    progress_done / progress_total:
        Shard progress of the current (or final) run.
    error:
        Failure provenance for ``"failed"`` jobs.
    result:
        The finished run's JSON document (rebuilt from the store on
        demand after a restart).
    cancel_event / cancel_cause:
        The runner's cancellation hook and why it fired
        (``"client"`` / ``"drain"``; deadline expiry needs no event).
    """

    job: str
    request: JobRequest
    compute_hash: str
    state: str = "queued"
    submitted_t: float = 0.0
    started_t: float | None = None
    finished_t: float | None = None
    deadline_t: float | None = None
    cases: int = 0
    progress_done: int = 0
    progress_total: int = 0
    error: str | None = None
    result: dict | None = None
    cancel_event: threading.Event = field(default_factory=threading.Event)
    cancel_cause: str | None = None

    def view(self) -> JobView:
        """The response-schema projection of this job."""
        document = self.request.document
        return JobView(
            job=self.job, state=self.state,
            study=str(document.get("name", "")),
            engine=str(document.get("engine", "")),
            compute_hash=self.compute_hash, client=self.request.client,
            submitted_t=self.submitted_t, started_t=self.started_t,
            finished_t=self.finished_t, deadline_t=self.deadline_t,
            cases=self.cases, progress_done=self.progress_done,
            progress_total=self.progress_total, error=self.error)


class JobQueue:
    """Bounded, supervised, crash-safe job queue over the study runner.

    Args:
        store_dir: Service state directory — study shards persist under
            ``store_dir/shards`` (the resume/dedup substrate), the job
            journal at ``store_dir/jobs.jsonl`` and per-job run journals
            under ``store_dir/runs/``.  ``None`` runs fully in memory
            (no crash recovery).
        workers: Concurrent job-executing threads.
        max_queue: Hard bound on *waiting* jobs (admission control).
        max_per_client: Hard bound on one client's open (queued+running)
            jobs.
        max_job_procs: Cap on per-job worker processes (a request's
            ``jobs`` is clamped to this).
        retain: Terminal jobs kept in memory for ``/jobs/{id}`` lookups;
            the oldest beyond this are pruned (their journal lines and
            shards remain on disk).
    """

    def __init__(self, store_dir: str | Path | None = None, *,
                 workers: int = 2, max_queue: int = 8,
                 max_per_client: int = 4, max_job_procs: int = 1,
                 retain: int = 64) -> None:
        for name, value in (("workers", workers), ("max_queue", max_queue),
                            ("max_per_client", max_per_client),
                            ("max_job_procs", max_job_procs),
                            ("retain", retain)):
            if value < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {value}")
        self.store_dir = Path(store_dir) if store_dir is not None else None
        self.workers = workers
        self.max_queue = max_queue
        self.max_per_client = max_per_client
        self.max_job_procs = max_job_procs
        self.retain = retain
        if self.store_dir is not None:
            self.study_store: StudyStore | None = StudyStore(
                maxsize=64, cache_dir=self.store_dir / "shards")
            self.jobstore = JobStore(self.store_dir / "jobs.jsonl")
        else:
            self.study_store = None
            self.jobstore = JobStore(None)
        self._cv = threading.Condition()
        self._jobs: dict[str, Job] = {}
        self._pending: deque[str] = deque()
        self._threads: list[threading.Thread] = []
        self._draining = False
        self._stopped = False
        self._ema_wall_s: float | None = None

    # -- introspection -------------------------------------------------------

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` started (admissions refused)."""
        return self._draining

    def stats(self) -> dict:
        """Live queue counters (the ``/healthz`` payload)."""
        with self._cv:
            states = [job.state for job in self._jobs.values()]
            return {
                "jobs": len(states),
                "queued": states.count("queued"),
                "running": states.count("running"),
                "workers": self.workers,
                "max_queue": self.max_queue,
                "max_per_client": self.max_per_client,
                "draining": self._draining,
            }

    def get(self, job_id: str) -> Job:
        """The job for ``job_id``.

        Raises:
            UnknownJobError: When no such job is known (HTTP 404).
        """
        with self._cv:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(job_id)
        return job

    def list_jobs(self) -> list[Job]:
        """Every retained job, in submission order."""
        with self._cv:
            return sorted(self._jobs.values(), key=lambda j: j.submitted_t)

    # -- admission -----------------------------------------------------------

    def submit(self, request: JobRequest) -> tuple[Job, bool]:
        """Admit (or coalesce) one validated submission.

        Dedup runs before admission control: a request whose
        ``compute_hash`` matches an open job returns that job, and one
        matching a ``"done"`` job returns the finished job (served from
        the store) — neither consumes queue capacity.  Only a genuinely
        new computation is subject to the queue bound and the per-client
        cap.

        Args:
            request: The edge-validated request.

        Returns:
            ``(job, created)`` — ``created`` is False when the request
            coalesced onto an existing job.

        Raises:
            AdmissionError: When the service is draining, the queue is at
                its bound, or the client is at its in-flight cap (the HTTP
                edge renders 429/503 with ``Retry-After``).
        """
        spec = request.spec()
        compute_hash = spec.compute_hash
        with self._cv:
            if self._draining or self._stopped:
                raise AdmissionError(
                    "service is draining and admits no new jobs",
                    retry_after_s=30.0)
            match = self._dedup_match(compute_hash, request)
            if match is not None:
                return match, False
            if len(self._pending) >= self.max_queue:
                raise AdmissionError(
                    f"job queue is at its bound ({self.max_queue} waiting); "
                    f"retry later", retry_after_s=self._retry_after())
            open_for_client = sum(
                1 for job in self._jobs.values()
                if job.request.client == request.client
                and job.state not in TERMINAL_STATES)
            if open_for_client >= self.max_per_client:
                raise AdmissionError(
                    f"client {request.client!r} already has "
                    f"{open_for_client} jobs in flight (cap "
                    f"{self.max_per_client})",
                    retry_after_s=self._retry_after())
            now = time.time()
            job = Job(
                job=uuid.uuid4().hex[:12], request=request,
                compute_hash=compute_hash, submitted_t=now,
                deadline_t=(now + request.deadline_s
                            if request.deadline_s is not None else None),
                cases=spec.case_count)
            self._jobs[job.job] = job
            self._pending.append(job.job)
            self.jobstore.job_submitted(
                job=job.job, study=spec.name, compute_hash=compute_hash,
                client=request.client, document=request.document,
                options=request.options(), deadline_t=job.deadline_t)
            self._cv.notify()
            return job, True

    def _dedup_match(self, compute_hash: str,
                     request: JobRequest) -> Job | None:
        """An open or finished job this request coalesces onto (lock held).

        Two submissions coalesce only when they compute the same thing:
        same ``compute_hash`` *and* the same distributed slice — a full
        run never coalesces onto a shard slice (or vice versa), and slice
        ``1/3`` never coalesces onto slice ``2/3``.
        """
        done: Job | None = None
        slice_key = (request.shard_index, request.shard_of)
        for job in self._jobs.values():
            if job.compute_hash != compute_hash:
                continue
            if (job.request.shard_index,
                    job.request.shard_of) != slice_key:
                continue
            if job.state in ("queued", "running"):
                return job
            if job.state == "done" and (done is None
                                        or job.submitted_t > done.submitted_t):
                done = job
        return done

    def _retry_after(self) -> float:
        """``Retry-After`` estimate [s] from the recent job wall-time EMA."""
        estimate = self._ema_wall_s if self._ema_wall_s is not None else 5.0
        depth = len(self._pending) + sum(
            1 for job in self._jobs.values() if job.state == "running")
        return min(600.0, max(1.0, estimate * (depth + 1) / self.workers))

    # -- cancellation --------------------------------------------------------

    def cancel(self, job_id: str) -> tuple[Job, bool]:
        """Cancel a job on client request.

        A queued job transitions to ``"cancelled"`` immediately; a running
        job has its cancel hook armed and transitions when the runner
        checkpoints (completed shards stay persisted).

        Args:
            job_id: The job to cancel.

        Returns:
            ``(job, accepted)`` — ``accepted`` is False when the job was
            already terminal (HTTP 409).

        Raises:
            UnknownJobError: When no such job is known.
        """
        job = self.get(job_id)
        with self._cv:
            if job.state == "queued":
                try:
                    self._pending.remove(job.job)
                except ValueError:  # pragma: no cover - picked up racily
                    pass
                job.state = "cancelled"
                job.cancel_cause = "client"
                job.finished_t = time.time()
                self.jobstore.job_cancelled(job=job.job, was="queued")
                return job, True
            if job.state == "running":
                job.cancel_cause = "client"
                job.cancel_event.set()
                self.jobstore.job_cancelled(job=job.job, was="running")
                return job, True
            return job, False

    # -- results -------------------------------------------------------------

    def result(self, job_id: str) -> tuple[Job, dict | None]:
        """The job and its result document, when one exists.

        ``"done"``/``"partial"``/``"cancelled"`` jobs have a document
        (partial/cancelled ones contain exactly the completed shards);
        open and ``"failed"`` jobs return ``None``.  After a restart the
        document is rebuilt from the study store's shards — a read, not a
        recomputation — and is bit-identical to the pre-crash one.

        Raises:
            UnknownJobError: When no such job is known.
        """
        job = self.get(job_id)
        if job.state not in TERMINAL_STATES or job.state == "failed":
            return job, None
        if job.result is None and self.study_store is not None:
            job.result = self._rebuild_result(job)
        return job, job.result

    def _rebuild_result(self, job: Job) -> dict | None:
        """Reassemble a terminal job's document from stored shards."""
        request = job.request
        cancel = None if job.state == "done" else (lambda: True)
        try:
            spec = request.spec()
            # For complete jobs every shard is reused from the store; for
            # partial/cancelled jobs the immediate cancel stops the run
            # right after reuse, so only the completed shards appear.
            if request.shard_of is not None:
                slice_run = run_shard_slice(
                    spec, request.shard_index, request.shard_of,
                    self.study_store, shards=request.shards,
                    journal=RunJournal(None), cancel=cancel)
                report = slice_run.report
                if report is None:  # empty slice — nothing to document
                    return None
            else:
                report = run_study(
                    spec, jobs=1, shards=request.shards,
                    store=self.study_store, journal=RunJournal(None),
                    cancel=cancel)
        except ReproError:
            return None
        return report.table.to_document(metadata=self._result_metadata(job))

    def _result_metadata(self, job: Job) -> dict:
        metadata = {"job": job.job, "state": job.state,
                    "compute_hash": job.compute_hash}
        if job.request.shard_of is not None:
            metadata["shard_index"] = job.request.shard_index
            metadata["shard_of"] = job.request.shard_of
        return metadata

    # -- execution -----------------------------------------------------------

    def recover(self) -> int:
        """Replay ``jobs.jsonl`` and re-enqueue every open job.

        Terminal jobs are reloaded for ``/jobs/{id}`` visibility (results
        rebuild lazily from the store); jobs that were queued or running
        when the previous process died re-enter the queue — with their
        original ids and absolute deadlines — and resume from whatever
        shards the store already holds.

        Returns:
            The number of re-enqueued jobs.
        """
        records, _ = self.jobstore.replay()
        requeued = 0
        with self._cv:
            for record in records.values():
                if record["job"] in self._jobs:
                    continue
                try:
                    request = JobRequest(
                        document=record["document"] or {},
                        client=str(record["client"] or "anonymous"),
                        **{key: record["options"].get(key)
                           for key in ("shards", "shard_timeout_s",
                                       "deadline_s", "shard_index",
                                       "shard_of")},
                        jobs=int(record["options"].get("jobs") or 1),
                        retries=int(record["options"].get("retries") or 0))
                    cases = request.spec().case_count
                except (ReproError, TypeError, ValueError):
                    continue  # a record the current code cannot rebuild
                job = Job(
                    job=record["job"], request=request,
                    compute_hash=record["compute_hash"] or "",
                    state=record["state"],
                    submitted_t=record["submitted_t"] or 0.0,
                    started_t=record["started_t"],
                    finished_t=record["finished_t"],
                    deadline_t=record["deadline_t"], cases=cases,
                    error=record["error"])
                self._jobs[job.job] = job
                if record["state"] in ("queued", "running"):
                    job.state = "queued"
                    job.started_t = None
                    self._pending.append(job.job)
                    self.jobstore.job_requeued(job=job.job)
                    requeued += 1
            self._cv.notify_all()
        return requeued

    def start(self) -> None:
        """Recover open jobs, spawn the worker threads, journal the start."""
        recovered = self.recover()
        self.jobstore.service_start(
            workers=self.workers, max_queue=self.max_queue,
            max_per_client=self.max_per_client, recovered=recovered)
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop, name=f"job-worker-{index}",
                daemon=True)
            thread.start()
            self._threads.append(thread)

    def _worker_loop(self) -> None:
        while True:
            with self._cv:
                while not self._pending and not self._stopped:
                    self._cv.wait(timeout=0.5)
                if self._stopped and not self._pending:
                    return
                job = self._jobs[self._pending.popleft()]
                if job.state != "queued":  # cancelled while waiting
                    continue
                job.state = "running"
                job.started_t = time.time()
            self.jobstore.job_started(job=job.job)
            self._execute(job)

    def _execute(self, job: Job) -> None:
        request = job.request
        spec = request.spec()
        effective_jobs = min(request.jobs, self.max_job_procs)

        def progress(done: int, total: int, label: str) -> None:
            with self._cv:
                job.progress_done = done
                job.progress_total = total

        def cancelled() -> bool:
            if job.cancel_event.is_set():
                return True
            return (job.deadline_t is not None
                    and time.time() >= job.deadline_t)

        journal: str | Path | RunJournal = RunJournal(None)
        if self.store_dir is not None:
            journal = self.store_dir / "runs" / f"{job.job}.jsonl"
        t0 = time.monotonic()
        try:
            if request.shard_of is not None:
                # Distributed slice: run only this worker's round-robin
                # subset and leave a signed manifest next to the shards
                # for a later `repro study merge`.
                slice_run = run_shard_slice(
                    spec, request.shard_index, request.shard_of,
                    self.study_store, jobs=effective_jobs,
                    shards=request.shards, retries=request.retries,
                    shard_timeout=(request.shard_timeout_s
                                   if effective_jobs > 1 else None),
                    journal=journal, progress=progress, cancel=cancelled)
                report = slice_run.report
            else:
                report = run_study(
                    spec, jobs=effective_jobs, shards=request.shards,
                    store=self.study_store, progress=progress,
                    retries=request.retries,
                    shard_timeout=(request.shard_timeout_s
                                   if effective_jobs > 1 else None),
                    journal=journal, cancel=cancelled)
        except Exception as exc:
            self._finalize(job, "failed", error=repr(exc),
                           wall_s=time.monotonic() - t0)
            return
        if report is None:
            # An empty slice (more workers than shards): nothing to
            # compute, nothing to attest beyond the (empty) manifest.
            self._finalize(job, "done", error=None,
                           wall_s=time.monotonic() - t0, cases=0)
            return
        if job.cancel_cause == "client":
            state = "cancelled"
        elif report.partial:
            # Deadline expiry or drain checkpoint: completed shards are
            # persisted and retrievable — graceful degradation, not error.
            state = "partial"
        else:
            state = "done"
        job.result = report.table.to_document(
            metadata=self._result_metadata(job) | {"state": state})
        self._finalize(job, state, error=None,
                       wall_s=time.monotonic() - t0, cases=len(report.table))

    def _finalize(self, job: Job, state: str, error: str | None,
                  wall_s: float, cases: int | None = None) -> None:
        with self._cv:
            job.state = state
            job.error = error
            job.finished_t = time.time()
            if cases is not None:
                job.cases = cases
            ema = self._ema_wall_s
            self._ema_wall_s = (wall_s if ema is None
                                else 0.7 * ema + 0.3 * wall_s)
            self._prune()
            self._cv.notify_all()
        self.jobstore.job_finished(job=job.job, state=state,
                                   cases=job.cases, wall_s=wall_s,
                                   error=error)

    def _prune(self) -> None:
        """Drop the oldest terminal jobs beyond ``retain`` (lock held)."""
        terminal = [job for job in self._jobs.values()
                    if job.state in TERMINAL_STATES]
        if len(terminal) <= self.retain:
            return
        terminal.sort(key=lambda j: j.finished_t or j.submitted_t)
        for job in terminal[:len(terminal) - self.retain]:
            del self._jobs[job.job]

    # -- shutdown ------------------------------------------------------------

    def drain(self, grace_s: float = 30.0) -> bool:
        """Stop admissions, finish or checkpoint in-flight work, stop.

        Admissions are refused immediately; queued and running jobs get
        ``grace_s`` seconds to finish.  When the grace budget expires,
        running jobs are checkpointed (cancel hook → ``"partial"``, every
        completed shard persisted) and still-queued jobs are *left queued
        in the journal* so the next start re-enqueues them.

        Args:
            grace_s: Wall-clock budget for in-flight work [s].

        Returns:
            True when everything finished within the grace budget (a
            clean drain), False when work was checkpointed or left queued.
        """
        with self._cv:
            self._draining = True
            self._cv.notify_all()
        deadline = time.monotonic() + max(0.0, grace_s)
        while time.monotonic() < deadline:
            with self._cv:
                if not self._pending and not any(
                        job.state == "running"
                        for job in self._jobs.values()):
                    break
            time.sleep(_DRAIN_POLL_S)
        with self._cv:
            self._stopped = True
            leftover = list(self._pending)
            self._pending.clear()
            running = [job for job in self._jobs.values()
                       if job.state == "running"]
            for job in running:
                if job.cancel_cause is None:
                    job.cancel_cause = "drain"
                job.cancel_event.set()
            # Still-queued jobs stay "queued" in the journal: the next
            # start finds and re-enqueues them (crash-safe handover).
            self._cv.notify_all()
        for thread in self._threads:
            thread.join(timeout=max(5.0, grace_s))
        with self._cv:
            open_jobs = sum(1 for job in self._jobs.values()
                            if job.state not in TERMINAL_STATES)
        drained = not leftover and not running and open_jobs == 0
        self.jobstore.service_stop(drained=drained, open=open_jobs)
        self.jobstore.close()
        return drained
