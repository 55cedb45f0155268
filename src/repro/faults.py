"""Deterministic fault injection for the supervised study runner.

A :class:`FaultPlan` is plain data — a list of :class:`FaultSpec` entries,
each naming the shard index, the attempt number and the failure mode to
inject — that crosses the process boundary inside the runner's worker
context and is executed *by the workers on themselves*.  The supervisor in
:mod:`repro.study.runner` never special-cases injected faults: a planned
``raise`` looks like an engine bug, a planned ``hang`` looks like a stuck
worker, a planned ``crash`` (``os._exit``) looks like the OOM killer, and a
planned ``corrupt`` leaves a recorded store bundle torn, as bit rot would.
That is the point — the fault-injection test matrix
(``tests/test_faults.py``) drives the real recovery machinery and asserts
the recovered results are bit-identical to a clean run.

Supported actions (:data:`FAULT_ACTIONS`):

``raise``
    Raise :class:`FaultInjected` before the shard computes.
``hang``
    Sleep ``hang_s`` seconds (default far beyond any shard timeout), then
    raise :class:`FaultInjected` — exercises the supervisor's wall-clock
    timeout and pool rebuild.
``crash``
    Hard-kill the worker process via ``os._exit(exit_code)`` — no exception
    propagates, the pool breaks, and the supervisor must rebuild it.
``corrupt``
    Store a placeholder bundle for the shard in the
    :class:`~repro.study.results.StudyStore` (so the run record maps the
    shard to it), overwrite the bundle with garbage bytes, then raise
    :class:`FaultInjected` naming it.  A retry's bundle is recorded later
    and supersedes it; without a retry, the next run reads the torn
    bundle, quarantines it and recomputes the shard — the store's
    checksum/quarantine path.
``corrupt_manifest``
    Overwrite the file at the plan's ``manifest_path`` with a torn manifest
    document and let the attempt *continue normally* — a write-path fault,
    not a compute failure.  The damage surfaces later, when ``repro study
    merge`` signature-verifies the manifest
    (:exc:`~repro.errors.ManifestError` → exit 4), exercising the
    distributed layer's tamper/torn-write rejection end to end.

Every fault fires on exactly one ``(shard, attempt)`` pair, so a plan like
``FaultSpec(shard=1, attempt=1, action="crash")`` crashes the first attempt
of shard 1 and lets the retry succeed — deterministic chaos, reproducible
run to run.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError, ReproError

__all__ = ["FAULT_ACTIONS", "FaultInjected", "FaultSpec", "FaultPlan",
           "load_fault_plan"]

#: The injectable failure modes, in escalating order of violence.
FAULT_ACTIONS = ("raise", "hang", "crash", "corrupt", "corrupt_manifest")

#: Context key the runner ships a serialized plan under.
CONTEXT_KEY = "fault_plan"


class FaultInjected(ReproError, RuntimeError):
    """An injected (planned) fault fired inside a worker."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: *what* fails, *where* and *when*.

    Attributes
    ----------
    shard:
        Shard index (position in the run's shard layout) the fault targets.
    attempt:
        1-based attempt number at which the fault fires; later attempts of
        the same shard run clean unless another spec targets them.
    action:
        One of :data:`FAULT_ACTIONS`.
    hang_s:
        Sleep duration of the ``hang`` action (seconds).
    exit_code:
        Process exit status of the ``crash`` action.
    """

    shard: int
    attempt: int = 1
    action: str = "raise"
    hang_s: float = 3600.0
    exit_code: int = 13

    def __post_init__(self) -> None:
        if self.action not in FAULT_ACTIONS:
            raise ConfigurationError(
                f"unknown fault action {self.action!r}; "
                f"expected one of {FAULT_ACTIONS}")
        if self.shard < 0:
            raise ConfigurationError(
                f"fault shard index must be >= 0, got {self.shard}")
        if self.attempt < 1:
            raise ConfigurationError(
                f"fault attempt must be >= 1, got {self.attempt}")
        if self.hang_s < 0:
            raise ConfigurationError(
                f"fault hang_s must be >= 0, got {self.hang_s}")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of planned faults, executable by workers.

    The plan serializes to plain JSON-able data (:meth:`to_context`) so it
    can ride the runner's picklable worker context; workers rebuild it with
    :meth:`from_context` and call :meth:`execute` before evaluating a shard.

    Attributes
    ----------
    faults:
        The planned :class:`FaultSpec` entries.
    store_dir:
        Directory of the run's :class:`~repro.study.results.StudyStore` —
        required by (and only used for) ``corrupt`` faults, which tear a
        bundle there.
    manifest_path:
        File the ``corrupt_manifest`` action tears — typically another
        worker's (or a previous run's) shard manifest, so the merge's
        signature check is exercised against realistic torn-write damage.
    """

    faults: tuple[FaultSpec, ...] = ()
    store_dir: str | None = None
    manifest_path: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        if self.store_dir is None and any(f.action == "corrupt"
                                          for f in self.faults):
            raise ConfigurationError(
                "a 'corrupt' fault needs the plan's store_dir (the study "
                "store directory where it tears a bundle)")
        if self.manifest_path is None and any(
                f.action == "corrupt_manifest" for f in self.faults):
            raise ConfigurationError(
                "a 'corrupt_manifest' fault needs the plan's manifest_path "
                "(the manifest file it tears)")

    def find(self, shard: int, attempt: int) -> FaultSpec | None:
        """The planned fault for ``(shard, attempt)``, or ``None``."""
        for spec in self.faults:
            if spec.shard == shard and spec.attempt == attempt:
                return spec
        return None

    def execute(self, shard: int, attempt: int, *, study=None,
                start: int = 0, stop: int = 0) -> None:
        """Fire the planned fault for ``(shard, attempt)``, if any.

        Called by the worker itself at the top of a shard attempt.

        Args:
            shard: Shard index being attempted.
            attempt: 1-based attempt number.
            study: The :class:`~repro.study.spec.StudySpec` being run
                (needed by ``corrupt`` to record its torn bundle).
            start: First case index of the shard (``corrupt`` key).
            stop: One-past-last case index of the shard (``corrupt`` key).

        Raises:
            FaultInjected: For ``raise``, ``hang`` (after sleeping) and
                ``corrupt`` (after tearing a bundle); ``crash`` never
                returns — the process exits.
        """
        spec = self.find(shard, attempt)
        if spec is None:
            return
        label = f"shard {shard} attempt {attempt}"
        if spec.action == "raise":
            raise FaultInjected(f"injected raise: {label}")
        if spec.action == "hang":
            time.sleep(spec.hang_s)
            raise FaultInjected(f"injected hang elapsed: {label}")
        if spec.action == "crash":
            os._exit(spec.exit_code)
        if spec.action == "corrupt_manifest":
            # Tear the targeted manifest the way a killed signer would —
            # valid JSON envelope, signature no longer matching — and let
            # the attempt continue: the damage is a write-path artifact
            # that only surfaces when a merge verifies the signature.
            path = Path(self.manifest_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text('{"manifest": {"study": "torn-by-fault-'
                            'injection"}, "signature": "0000"}\n')
            return
        # corrupt: record a bundle for the shard, tear it (truncated
        # garbage), then fail the attempt.  A later record line for the
        # shard (the retry's) supersedes it; otherwise the next run
        # quarantines it and recomputes the shard.
        from repro.study.results import StudyStore

        if study is None:
            raise ConfigurationError(
                "a 'corrupt' fault needs the study spec to record its "
                "torn bundle")
        store = StudyStore(cache_dir=self.store_dir)
        key = store.put_bundle(study, [(start, stop,
                                        {"case": list(range(start, stop))})])
        if key is None:
            raise FaultInjected(f"injected store corruption: {label} "
                                f"(the store refused the bundle)")
        path = store.bundle_path(key)
        path.write_bytes(b"PK\x03\x04torn-by-fault-injection")
        raise FaultInjected(
            f"injected store corruption: {label} (bundle {path.name})")

    # -- context round trip ---------------------------------------------------

    def to_context(self) -> dict:
        """Serialize to the plain mapping shipped in the worker context."""
        return {
            "store_dir": self.store_dir,
            "manifest_path": self.manifest_path,
            "faults": [{"shard": f.shard, "attempt": f.attempt,
                        "action": f.action, "hang_s": f.hang_s,
                        "exit_code": f.exit_code} for f in self.faults],
        }

    @classmethod
    def from_mapping(cls, document: dict) -> "FaultPlan":
        """Build a validated plan from a parsed JSON/context mapping."""
        if not isinstance(document, dict):
            raise ConfigurationError(
                f"fault plan must be a mapping, got {type(document).__name__}")
        unknown = set(document) - {"faults", "store_dir", "manifest_path"}
        if unknown:
            raise ConfigurationError(
                f"unknown fault-plan keys {sorted(unknown)}; "
                f"accepted: ['faults', 'manifest_path', 'store_dir']")
        entries = document.get("faults", [])
        if not isinstance(entries, (list, tuple)):
            raise ConfigurationError("fault plan 'faults' must be a list")
        faults = []
        for entry in entries:
            if not isinstance(entry, dict):
                raise ConfigurationError(
                    f"each fault must be a mapping, got {type(entry).__name__}")
            bad = set(entry) - {"shard", "attempt", "action", "hang_s",
                                "exit_code"}
            if bad:
                raise ConfigurationError(
                    f"unknown fault keys {sorted(bad)}")
            faults.append(FaultSpec(
                shard=int(entry.get("shard", -1)),
                attempt=int(entry.get("attempt", 1)),
                action=str(entry.get("action", "raise")),
                hang_s=float(entry.get("hang_s", 3600.0)),
                exit_code=int(entry.get("exit_code", 13)),
            ))
        store_dir = document.get("store_dir")
        manifest_path = document.get("manifest_path")
        return cls(
            faults=tuple(faults),
            store_dir=None if store_dir is None else str(store_dir),
            manifest_path=(None if manifest_path is None
                           else str(manifest_path)))

    @classmethod
    def from_context(cls, context: dict) -> "FaultPlan | None":
        """Rebuild the plan a runner shipped in ``context``, if any."""
        document = (context or {}).get(CONTEXT_KEY)
        if document is None:
            return None
        return cls.from_mapping(document)


def load_fault_plan(path: str | Path) -> FaultPlan:
    """Load and validate a JSON fault-plan file.

    The document mirrors :meth:`FaultPlan.to_context`::

        {"store_dir": ".study",
         "faults": [{"shard": 1, "attempt": 1, "action": "crash"},
                    {"shard": 2, "attempt": 1, "action": "hang",
                     "hang_s": 600.0}]}

    Args:
        path: Path to the JSON document.

    Returns:
        The validated :class:`FaultPlan`.

    Raises:
        ConfigurationError: On unreadable files, invalid JSON or any
            schema violation.
    """
    path = Path(path)
    try:
        document = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read fault plan {str(path)!r}: {exc}")
    except ValueError as exc:
        raise ConfigurationError(
            f"fault plan {str(path)!r} is not valid JSON: {exc}")
    return FaultPlan.from_mapping(document)
