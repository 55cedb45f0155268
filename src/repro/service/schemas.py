"""Typed request/response schemas of the scenario-planning service.

Validation happens **at the edge**: an HTTP payload is parsed into a frozen
:class:`JobRequest` before anything touches the queue, so a malformed study
document, a negative retry count or an unknown option is a 400
response — never a poisoned job.  The study document itself is validated by
the same :func:`~repro.study.spec.study_from_mapping` path the CLI uses, so
the service accepts exactly the documents ``repro study run`` accepts —
any of the five engines, including the ``network`` topology optimizer's
per-km-budget sweeps.

Responses are equally typed: :class:`JobView` is the single projection of a
job's observable state (identity, lifecycle timestamps, progress, error
provenance) every endpoint renders, so clients see one schema whether they
poll ``/jobs/{id}``, list ``/jobs`` or receive a submit acknowledgement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.study.spec import StudySpec, study_from_mapping

__all__ = ["JobRequest", "JobView"]

#: Hard ceiling on per-job worker processes a request may ask for; the
#: queue additionally clamps to its own ``max_job_procs``.
MAX_REQUEST_JOBS = 8

_REQUEST_KEYS = {"study", "jobs", "shards", "retries", "shard_timeout_s",
                 "deadline_s", "shard_index", "shard_of"}


def _positive_number(value, name: str, allow_none: bool = True):
    if value is None and allow_none:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        # json.loads accepts NaN and Infinity; a NaN deadline never fires.
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    if value <= 0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return float(value)


def _bounded_int(value, name: str, low: int, high: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if not low <= value <= high:
        raise ConfigurationError(
            f"{name} must be in [{low}, {high}], got {value}")
    return value


@dataclass(frozen=True)
class JobRequest:
    """One validated job submission: a study document plus run options.

    Attributes
    ----------
    document:
        The raw study mapping (the same schema as a ``studies/*.yaml``
        file), kept verbatim so the job store can persist it and a
        restarted server can rebuild the spec.
    jobs:
        Worker processes for the study run (clamped by the queue's
        ``max_job_procs``; at most :data:`MAX_REQUEST_JOBS`).
    shards:
        Shard count override (``None`` uses the runner default).
    retries:
        Per-shard retry budget forwarded to the supervised runner.
    shard_timeout_s:
        Wall-clock budget per shard attempt [s] (needs ``jobs >= 2``).
    deadline_s:
        Whole-job wall-clock budget [s], measured from admission.  An
        expiring job is cancelled through the runner's ``cancel`` hook and
        finishes in the ``"partial"`` state with its completed shards
        retrievable.
    shard_index / shard_of:
        When both are set, the job executes only worker ``shard_index``'s
        round-robin slice of an ``shard_of``-way distributed split
        (:func:`~repro.study.distributed.run_shard_slice`) and leaves a
        signed shard manifest in the service store for a later
        ``repro study merge``.  Must be set together, with
        ``0 <= shard_index < shard_of``.
    client:
        Submitting client identity (the ``X-Client-Id`` header, falling
        back to the peer address) — the key of the per-client in-flight
        admission cap.
    """

    document: dict
    jobs: int = 1
    shards: int | None = None
    retries: int = 0
    shard_timeout_s: float | None = None
    deadline_s: float | None = None
    shard_index: int | None = None
    shard_of: int | None = None
    client: str = "anonymous"

    @classmethod
    def from_mapping(cls, payload, client: str = "anonymous") -> "JobRequest":
        """Validate an HTTP payload into a request (the 400 gate).

        Args:
            payload: The decoded JSON body; must be a mapping with a
                ``study`` document and optional run options.
            client: Submitting client identity.

        Returns:
            The validated request.

        Raises:
            ConfigurationError: On a non-mapping payload, unknown keys, a
                missing/invalid study document or out-of-range options —
                everything the edge turns into an HTTP 400.
        """
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"request body must be a JSON object, "
                f"got {type(payload).__name__}")
        unknown = set(payload) - _REQUEST_KEYS
        if unknown:
            raise ConfigurationError(
                f"unknown request keys {sorted(unknown)}; "
                f"accepted: {sorted(_REQUEST_KEYS)}")
        if "study" not in payload:
            raise ConfigurationError("request needs a 'study' document")
        document = payload["study"]
        if not isinstance(document, dict):
            raise ConfigurationError(
                f"'study' must be a study document mapping, "
                f"got {type(document).__name__}")
        # Validate the document end to end (axes, engine contract, derived
        # metrics) exactly like `repro study run` would.
        spec = study_from_mapping(document, source="<request>")
        jobs = _bounded_int(payload.get("jobs", 1), "jobs", 1,
                            MAX_REQUEST_JOBS)
        shards = payload.get("shards")
        if shards is not None:
            shards = _bounded_int(shards, "shards", 1, 4096)
        retries = _bounded_int(payload.get("retries", 0), "retries", 0, 16)
        shard_timeout_s = _positive_number(
            payload.get("shard_timeout_s"), "shard_timeout_s")
        deadline_s = _positive_number(payload.get("deadline_s"), "deadline_s")
        shard_index = payload.get("shard_index")
        shard_of = payload.get("shard_of")
        if (shard_index is None) != (shard_of is None):
            raise ConfigurationError(
                "shard_index and shard_of must be provided together")
        if shard_of is not None:
            shard_of = _bounded_int(shard_of, "shard_of", 1, 1024)
            shard_index = _bounded_int(shard_index, "shard_index", 0,
                                       shard_of - 1)
        request = cls(document=dict(document), jobs=jobs, shards=shards,
                      retries=retries, shard_timeout_s=shard_timeout_s,
                      deadline_s=deadline_s,
                      shard_index=shard_index, shard_of=shard_of,
                      client=str(client))
        object.__setattr__(request, "_spec", spec)
        return request

    def spec(self) -> StudySpec:
        """The validated :class:`~repro.study.spec.StudySpec` of the document.

        Parsed once per request (the spec is frozen, and so is the
        request): :meth:`from_mapping` keeps the spec it validated, and a
        request built directly (a replayed journal record) parses on its
        first call.  The spec memoizes its ``compute_hash`` in turn.
        """
        spec = self.__dict__.get("_spec")
        if spec is None:
            spec = study_from_mapping(self.document, source="<request>")
            object.__setattr__(self, "_spec", spec)
        return spec

    def options(self) -> dict:
        """The run options as a plain mapping (persisted to the job store)."""
        return {"jobs": self.jobs, "shards": self.shards,
                "retries": self.retries,
                "shard_timeout_s": self.shard_timeout_s,
                "deadline_s": self.deadline_s,
                "shard_index": self.shard_index, "shard_of": self.shard_of}


@dataclass(frozen=True)
class JobView:
    """The observable state of one job — the response schema of every
    job endpoint.

    Attributes
    ----------
    job:
        Job id (also the path segment of ``/jobs/{id}``).
    state:
        One of :data:`~repro.service.queue.JOB_STATES`.
    study / engine / compute_hash:
        Study provenance (the dedup key is ``compute_hash``).
    client:
        Submitting client identity.
    submitted_t / started_t / finished_t:
        Unix lifecycle timestamps (``None`` until reached).
    deadline_t:
        Absolute unix deadline (``None`` without one).
    cases:
        Total case count of the study.
    progress_done / progress_total:
        Completed vs. total shards of the current (or final) run.
    error:
        Failure provenance for ``"failed"`` jobs, else ``None``.
    """

    job: str
    state: str
    study: str
    engine: str
    compute_hash: str
    client: str
    submitted_t: float
    started_t: float | None
    finished_t: float | None
    deadline_t: float | None
    cases: int
    progress_done: int
    progress_total: int
    error: str | None

    def to_mapping(self) -> dict:
        """The JSON-ready response payload (every field is a scalar, so a
        flat copy of the fields is the whole payload)."""
        return dict(self.__dict__)
