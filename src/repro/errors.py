"""Exception hierarchy for :mod:`repro`.

All library-specific failures derive from :class:`ReproError` so callers can
catch one base class.  Input validation raises the specific subclasses below
instead of bare ``ValueError`` where the error concerns domain semantics.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "GeometryError",
    "InfeasibleError",
    "SimulationError",
    "StudyExecutionError",
    "ManifestError",
    "MergeValidationError",
    "ServiceError",
    "AdmissionError",
    "UnknownJobError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError, ValueError):
    """A scenario or model parameter is invalid or inconsistent."""


class GeometryError(ReproError, ValueError):
    """A corridor layout is geometrically impossible (overlaps, out of range)."""


class InfeasibleError(ReproError):
    """An optimization found no feasible solution under the given constraints.

    Diagnostic keyword arguments (e.g. the violated ``budget`` and the true
    ``minimum`` achievable) are stored in :attr:`details` and exposed as
    attributes, so callers can report *how far* a constraint set is from
    feasible without parsing the message.
    """

    def __init__(self, message: str, **details: object) -> None:
        super().__init__(message)
        self.details = details
        for key, value in details.items():
            setattr(self, key, value)


class SimulationError(ReproError, RuntimeError):
    """The discrete-event simulation reached an inconsistent state."""


class StudyExecutionError(ReproError, RuntimeError):
    """A study shard exhausted its retry budget (crash/timeout/worker loss).

    Raised by the supervised runner when a shard keeps failing without an
    engine exception to re-raise — a hung worker cancelled by the shard
    timeout, or a worker process killed hard (OOM/SIGKILL).  Engine
    exceptions themselves are re-raised unchanged after the last attempt.
    """


class ManifestError(ReproError, ValueError):
    """A shard manifest is malformed, unreadable or fails its signature.

    Raised by :mod:`repro.study.manifest` when a sidecar document cannot be
    parsed, misses required fields, declares an unsupported schema version,
    or its body no longer matches the embedded SHA-256 signature (a
    hand-edited or torn manifest).
    """


class MergeValidationError(ReproError, RuntimeError):
    """A distributed merge rejected its shard set before producing a table.

    Structured: :attr:`kind` names the violated invariant (``"spec_hash"``,
    ``"layout"``, ``"overlap"``, ``"missing"``, ``"checksum"`` or
    ``"crn"``) and :attr:`details` carries the evidence
    (the offending ranges, hashes or case indices), so callers — the CLI's
    exit-code mapping, the dist-smoke CI leg — can react without parsing
    the message.
    """

    def __init__(self, message: str, kind: str, **details: object) -> None:
        super().__init__(message)
        #: The violated merge invariant (see class docstring).
        self.kind = kind
        #: Structured evidence of the violation.
        self.details = details


class ServiceError(ReproError, RuntimeError):
    """Base class for scenario-planning service failures (:mod:`repro.service`)."""


class AdmissionError(ServiceError):
    """A job submission was refused by admission control (HTTP 429).

    Raised when the bounded job queue is at capacity or the submitting
    client already has its maximum number of jobs in flight.  Carries a
    ``retry_after_s`` hint the HTTP edge forwards as a ``Retry-After``
    header — overload is load-shed at the door, never queued unboundedly.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        #: Suggested wait before resubmitting [s] (``Retry-After`` header).
        self.retry_after_s = float(retry_after_s)


class UnknownJobError(ServiceError, KeyError):
    """A job id does not exist in the service's job store (HTTP 404)."""
