"""Crash-safe job store: the service's append-only ``jobs.jsonl``.

The queue never trusts process memory with job state: every lifecycle
transition appends one JSON object to ``jobs.jsonl`` through the same
:class:`~repro.study.journal.RunJournal` machinery as the study runner's
``run.jsonl`` (persistent append handle, flush per event, ``OSError``
swallowed — observation must never take down the work).  A
killed-and-restarted server :meth:`replays <JobStore.replay>` the file,
folds the events into per-job final states, re-enqueues every job that was
queued or running, and serves finished jobs' results straight from the
:class:`~repro.study.results.StudyStore` shards — recovery is a read, not
a rebuild.

Event schema (one JSON object per line)::

    {"event": "<type>", "t": <unix seconds>, ...}

=============== ============================================================
event            extra fields
=============== ============================================================
service_start    workers, max_queue, max_per_client, recovered
job_submitted    job, study, compute_hash, client, document, options,
                 deadline_t
job_started      job
job_finished     job, state, cases, wall_s, error
job_cancelled    job, was
job_requeued     job
service_stop     drained, open
=============== ============================================================

This table is load-bearing: ``tests/test_journal_schema.py`` introspects
every ``emit(...)`` call site in this module and asserts the event names
and field sets match it, exactly as it does for the runner's journal.
"""

from __future__ import annotations

from pathlib import Path

from repro.study.journal import RunJournal, scan_journal

__all__ = ["JobStore"]

class JobStore:
    """Append-only ``jobs.jsonl`` writer/replayer (no-op without a path).

    Args:
        path: The ``jobs.jsonl`` file, or ``None`` for an in-memory-only
            service (no crash recovery — unit tests and throwaway runs).
    """

    def __init__(self, path: str | Path | None) -> None:
        self.path = Path(path) if path is not None else None
        self._journal = RunJournal(self.path)

    def close(self) -> None:
        """Close the append handle (a later event reopens it)."""
        self._journal.close()

    # -- lifecycle events ----------------------------------------------------

    def service_start(self, workers: int, max_queue: int,
                      max_per_client: int, recovered: int) -> None:
        """Record a (re)started service and how many jobs it recovered."""
        self._journal.emit("service_start", workers=workers,
                           max_queue=max_queue, max_per_client=max_per_client,
                           recovered=recovered)

    def job_submitted(self, job: str, study: str, compute_hash: str,
                      client: str, document: dict, options: dict,
                      deadline_t: float | None) -> None:
        """Record an admitted job with everything needed to rebuild it."""
        self._journal.emit("job_submitted", job=job, study=study,
                           compute_hash=compute_hash, client=client,
                           document=document, options=options,
                           deadline_t=deadline_t)

    def job_started(self, job: str) -> None:
        """Record a job leaving the queue for a worker."""
        self._journal.emit("job_started", job=job)

    def job_finished(self, job: str, state: str, cases: int, wall_s: float,
                     error: str | None) -> None:
        """Record a terminal transition (``done``/``partial``/``failed``/
        ``cancelled``)."""
        self._journal.emit("job_finished", job=job, state=state, cases=cases,
                           wall_s=wall_s, error=error)

    def job_cancelled(self, job: str, was: str) -> None:
        """Record a client cancellation (``was`` is the state it hit)."""
        self._journal.emit("job_cancelled", job=job, was=was)

    def job_requeued(self, job: str) -> None:
        """Record a recovered open job re-entering the queue on restart."""
        self._journal.emit("job_requeued", job=job)

    def service_stop(self, drained: bool, open: int) -> None:
        """Record shutdown: whether the drain completed and what stayed open."""
        self._journal.emit("service_stop", drained=drained, open=open)

    # -- recovery ------------------------------------------------------------

    def replay(self) -> tuple[dict[str, dict], int]:
        """Fold ``jobs.jsonl`` into per-job final states.

        Returns:
            ``(jobs, skipped)`` — a mapping of job id to its folded record
            (``state``, ``document``, ``options``, timestamps, error) in
            submission order, and the mid-file corruption count from
            :func:`~repro.study.journal.scan_journal`.  Jobs whose folded
            state is still open (``queued``/``running``) are the ones a
            restart must re-enqueue.  A missing or disabled store replays
            empty.
        """
        if self.path is None:
            return {}, 0
        events, skipped = scan_journal(self.path)
        jobs: dict[str, dict] = {}
        for event in events:
            kind = event.get("event")
            job_id = event.get("job")
            if kind == "job_submitted":
                jobs[job_id] = {
                    "job": job_id,
                    "state": "queued",
                    "study": event.get("study"),
                    "compute_hash": event.get("compute_hash"),
                    "client": event.get("client"),
                    "document": event.get("document"),
                    "options": event.get("options") or {},
                    "deadline_t": event.get("deadline_t"),
                    "submitted_t": event.get("t"),
                    "started_t": None,
                    "finished_t": None,
                    "error": None,
                }
                continue
            record = jobs.get(job_id)
            if record is None:
                continue  # event for a job whose submission line was lost
            if kind == "job_started":
                record["state"] = "running"
                record["started_t"] = event.get("t")
            elif kind == "job_finished":
                record["state"] = event.get("state")
                record["finished_t"] = event.get("t")
                record["error"] = event.get("error")
            elif kind == "job_cancelled":
                record["state"] = "cancelled"
                record["finished_t"] = event.get("t")
            elif kind == "job_requeued":
                record["state"] = "queued"
                record["started_t"] = None
        return jobs, skipped
