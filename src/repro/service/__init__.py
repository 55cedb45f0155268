"""Resilient scenario-planning service: HTTP API over the study layer.

``repro serve`` wraps the declarative study layer (:mod:`repro.study`) in a
long-running JSON-over-HTTP service so operators plan corridor deployments
on demand instead of re-running CLIs.  The stack is **stdlib only**
(``http.server`` + ``threading``) and robustness is the design center:

* **typed schemas at the edge** (:mod:`repro.service.schemas`) — malformed
  requests are rejected with 400 before any work is admitted;
* **bounded queue with admission control** (:mod:`repro.service.queue`) —
  queue depth and per-client in-flight caps are hard limits; overload
  returns 429 with a ``Retry-After`` estimate instead of growing memory;
* **idempotent dedup** — submissions are keyed by
  :attr:`~repro.study.spec.StudySpec.compute_hash`, so identical requests
  coalesce onto one running job or are served straight from the finished
  one (and its :class:`~repro.study.results.StudyStore` shards);
* **per-job deadlines** — an expiring job is cancelled through the
  runner's ``cancel`` hook and lands in an explicit ``"partial"`` state
  with its completed shards retrievable (HTTP 206), not an error;
* **crash-safe job store** (:mod:`repro.service.jobstore`) — an
  append-only ``jobs.jsonl`` in the :class:`~repro.study.journal.RunJournal`
  discipline; a killed-and-restarted server replays it, re-enqueues every
  open job and resumes from the stored shards bit-identically;
* **graceful drain** (:mod:`repro.service.app`) — SIGTERM stops
  admissions (``/readyz`` flips to 503), finishes or checkpoints in-flight
  jobs, then exits.

See ``docs/service.md`` for endpoints, schemas and the job-lifecycle state
machine, and ``docs/robustness.md`` for how job states map to HTTP status
codes and CLI exit codes.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ScenarioService",
    "ServiceApp",
    "JobStore",
    "JOB_STATES",
    "TERMINAL_STATES",
    "Job",
    "JobQueue",
    "JobRequest",
    "JobView",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "app": ("ScenarioService", "ServiceApp"),
    "jobstore": ("JobStore",),
    "queue": ("JOB_STATES", "TERMINAL_STATES", "Job", "JobQueue"),
    "schemas": ("JobRequest", "JobView"),
})
