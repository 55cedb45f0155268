"""Structured JSONL run journal — the supervisor's observability substrate.

Every supervised study run can append one JSON object per line to a
``run.jsonl`` file (by default beside the :class:`~repro.study.results.StudyStore`
directory), recording the full shard lifecycle: submissions, completions,
retries with their backoff delays, wall-clock timeouts, pool rebuilds,
quarantined failures and the final run outcome.  The journal is *append
only* — an interrupted or crashed run leaves every event written so far, so
post-mortems never depend on the process surviving.  The writer keeps one
persistent append handle (flushed per event) instead of reopening the file
for every event; ``run_end`` closes it, and a later emit transparently
reopens.

Event schema (one JSON object per line)::

    {"event": "<type>", "t": <unix seconds>, ...}

========== =================================================================
event       extra fields
========== =================================================================
run_start   study, compute_hash, shards, jobs, retries, shard_timeout_s,
            keep_going
reused      shard, start, stop
submit      shard, start, stop, attempt, group
finish      shard, start, stop, attempt, wall_s, group
group_split group, shards (list of shard indices re-run alone), error
retry       shard, start, stop, attempt (the one that failed), delay_s,
            error, kind ("error" | "timeout" | "crash")
timeout     shard, start, stop, attempt, timeout_s
pool_broken lost (list of shard indices requeued), reason
layout_mismatch  stored (list of [start, stop]), current (list of [start, stop])
failure     shard, start, stop, attempts, error, kind
interrupt   completed
cancel      completed
run_end     computed, reused, failed, interrupted, cancelled, partial,
            wall_s
manifest    path, worker, of, shards
merge_start study, compute_hash, manifests, shards
worker_replay  worker, source, events
merge_crn_check  sampled, cases
merge_end   rows, shards, workers, wall_s
refresh_start  study, compute_hash, previous_hash, cases
refresh_end changed, reused, rows, partial, wall_s
========== =================================================================

``group`` is the first shard index of the attempt that ran the shard: an
inline run batches consecutive shards into one attempt (one engine call).
Under a ``cancel`` hook (the service) an inline attempt groups as many
shards as fit in the runner's ``_POLL_S`` of CPU time at the per-case CPU
pace (the attempt thread's ``time.thread_time``) last measured for the
spec's shape, and a single shard until a pace is measured
(:func:`repro.study.runner._supervise`).  So a cancel waits about
``_POLL_S`` of the attempt's CPU time, a few ``_POLL_S`` of wall under
load; ``finish`` walls stay wall-clock.  A pool run attempts each shard
alone (``group == shard``).  A grouped
shard's ``wall_s`` is its case share of the attempt's wall, so summing
``finish`` walls counts each attempt once.  ``group_split`` records a
failed group attempt; it charges no shard, and its members re-run alone
under the same attempt numbers.

The distributed layer (:mod:`repro.study.distributed`) emits the last seven
events: ``manifest`` when a shard-slice run signs its sidecar,
``merge_start`` / ``worker_replay`` / ``merge_crn_check`` / ``merge_end``
around a manifest merge (each worker's journal is replayed verbatim into
the merged journal via :meth:`RunJournal.append`, *between* its
``worker_replay`` marker and the next event, so the merged file is a
superset of every worker's provenance), and ``refresh_start`` /
``refresh_end`` around a rolling re-evaluation.  A refresh executes
through the runner, so a full ``run_start`` ... ``run_end`` shard
lifecycle sits between those markers (shards of reused rows only are
journaled as ``reused``); an engine failure ends it before
``refresh_end``.  :func:`resolve_journal` maps every ``journal=``
argument to a writer.

This table is load-bearing: ``tests/test_journal_schema.py`` introspects
every ``emit(...)`` call site in the runner (and the service job store) and
asserts the emitted event names and field sets match it, so the journal
schema cannot drift from its documentation.

:func:`read_journal` parses a journal back into dictionaries.  A torn
**final** line — the one artifact an interrupted writer can legitimately
leave — is skipped silently; malformed lines *before* the end of the file
mean real corruption and are surfaced (skipped, counted and warned about)
instead of being silently dropped.  :func:`scan_journal` returns the
skipped count programmatically.
"""

from __future__ import annotations

import json
import threading
import time
import warnings
from pathlib import Path

__all__ = ["RunJournal", "read_journal", "resolve_journal", "scan_journal"]


class RunJournal:
    """Append-only JSONL event writer (no-op when constructed with ``None``).

    The file handle opens lazily on the first :meth:`emit`, stays open
    across events (one ``write`` + ``flush`` per event instead of an
    open/write/close cycle), and closes on ``run_end`` or :meth:`close`.
    Emitting after a close transparently reopens in append mode, so one
    journal instance can observe several consecutive runs.  Writes are
    serialized by an internal lock, so concurrently supervising threads
    (e.g. the service job queue) never interleave partial lines.

    Args:
        path: Journal file to append to (parents are created), or ``None``
            for a disabled journal whose :meth:`emit` does nothing.
    """

    def __init__(self, path: str | Path | None) -> None:
        self.path = Path(path) if path is not None else None
        self._handle = None
        self._lock = threading.Lock()
        if self.path is not None:
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
            except OSError:
                # An unwritable journal location disables the journal; it
                # must never take down the run it observes.
                self.path = None

    def emit(self, event: str, **fields) -> None:
        """Append one event line; disk errors are swallowed.

        A journal must never take down the run it observes, so any
        ``OSError`` from the write (disk full, permissions yanked
        mid-run) is silently dropped — the broken handle is discarded and
        the next emit retries with a fresh one.

        Args:
            event: Event type (see the module schema table).
            fields: JSON-serializable extra fields.
        """
        if self.path is None:
            return
        # No sort_keys: nested payloads (e.g. the service's persisted study
        # documents) carry semantic mapping order — axes declaration order
        # determines case enumeration — and must replay byte-faithfully.
        self._write({"event": event, "t": time.time(), **fields},
                    close=event == "run_end")

    def append(self, record: dict) -> None:
        """Append one pre-built event record verbatim (replay path).

        Unlike :meth:`emit`, the record is written as-is — no ``t``
        timestamp is stamped and no schema is implied — so a merge can
        replay another journal's events into this one byte-faithfully
        (original timestamps, original fields).  Disk errors are swallowed
        exactly like :meth:`emit`; a replayed ``run_end`` does *not* close
        the handle (only a first-person ``run_end`` ends a journal).

        Args:
            record: A JSON-serializable event mapping.
        """
        if self.path is None:
            return
        self._write(record, close=False)

    def _write(self, record: dict, close: bool) -> None:
        """Write one record as a JSON line under the lock, swallowing disk
        errors; ``close`` releases the handle afterwards."""
        line = json.dumps(record) + "\n"
        with self._lock:
            try:
                if self._handle is None:
                    self._handle = open(self.path, "a")
                self._handle.write(line)
                self._handle.flush()
            except (OSError, ValueError):
                self._close_handle()
            if close:
                self._close_handle()

    def close(self) -> None:
        """Close the append handle (a later :meth:`emit` reopens it)."""
        with self._lock:
            self._close_handle()

    def _close_handle(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:  # pragma: no cover - close on a dead handle
                pass
            self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def resolve_journal(journal, store=None,
                    name: str = "run.jsonl") -> RunJournal:
    """The writer for a ``journal=`` argument: a :class:`RunJournal` as is,
    a path opened, ``None`` as file ``name`` in ``store``'s directory
    (disabled when there is no store or it has no disk layer)."""
    if isinstance(journal, RunJournal):
        return journal
    if journal is not None:
        return RunJournal(journal)
    cache_dir = getattr(store, "cache_dir", None)
    return RunJournal(cache_dir / name if cache_dir is not None else None)


def scan_journal(path: str | Path) -> tuple[list[dict], int]:
    """Parse a journal file, separating events from corruption evidence.

    Args:
        path: The journal file.

    Returns:
        ``(events, skipped)`` — one dict per well-formed line, in file
        order, and the number of malformed lines *before* the final line.
        A torn final line (the legitimate trace of an interrupted writer)
        is dropped without counting; a missing file reads as
        ``([], 0)``.  A byte that is not UTF-8 damages only its line.
    """
    try:
        lines = Path(path).read_text(errors="replace").splitlines()
    except (FileNotFoundError, NotADirectoryError):
        return [], 0
    events: list[dict] = []
    skipped = 0
    for number, line in enumerate(lines, start=1):
        try:
            events.append(json.loads(line))
        except ValueError:
            if number < len(lines):
                skipped += 1
    return events, skipped


def read_journal(path: str | Path) -> list[dict]:
    """Parse a ``run.jsonl`` file back into event dictionaries.

    Args:
        path: The journal file.

    Returns:
        One dict per well-formed line, in file order.  A torn final line
        (interrupted writer) is skipped silently; a missing file reads as
        an empty journal.

    Warns:
        RuntimeWarning: When malformed lines occur *before* the final
            line — mid-file corruption an append-only writer cannot
            produce, so it is surfaced instead of silently skipped (the
            warning carries the skipped-line count; use
            :func:`scan_journal` to obtain it programmatically).
    """
    events, skipped = scan_journal(path)
    if skipped:
        warnings.warn(
            f"journal {str(path)!r}: skipped {skipped} malformed mid-file "
            f"line(s) — an append-only writer only ever tears its final "
            f"line, so this journal has been corrupted or hand-edited",
            RuntimeWarning, stacklevel=2)
    return events
