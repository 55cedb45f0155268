"""Supervised sharded study execution: retries, timeouts, pool rebuilds.

:func:`run_study` turns a :class:`~repro.study.spec.StudySpec` into a merged
:class:`~repro.study.results.StudyTable`:

1. the case list (cartesian axis product) is split into ``shards`` contiguous
   chunks of near-equal size;
2. shards the optional :class:`~repro.study.results.StudyStore`'s run record
   lists are reused (resume-from-partial), as are shards made only of rows
   the caller passes as ``reuse_rows`` (how a refresh carries rows over);
3. the remaining shards run under one **supervisor loop** (:func:`_supervise`)
   with a ``[k/n]`` progress callback per completed shard.  An attempt is
   one engine call over an **attempt group** of consecutive pending
   shards, its rows split back per shard, each shard journaled and
   reported on its own, and the group stored as one bundle.  With
   ``jobs=1`` an attempt runs in this process as it is submitted, over at
   most :data:`_GROUP_CASES` cases — under a ``cancel`` hook, about
   :data:`_POLL_S` of the attempt's own CPU time at the pace last
   measured for the spec's shape on the same store (:data:`_PACES`), so a
   steady-state service job is one group, however busy the host; at least
   one shard either way.  The shards left behind a group join it when
   they fit in twice that, so no group leaves a small tail call: the
   first job of a shape is a one-shard probe and one group.  A cancel or
   deadline then waits at most about 2 x :data:`_POLL_S` of CPU time,
   which under load is a few times that in wall.
   With ``jobs > 1`` attempts run one shard each on a
   :class:`~concurrent.futures.ProcessPoolExecutor` of ``jobs`` workers,
   so timeouts and crashes are attributed per shard;
4. completed shards merge, in case order, into the final table.

**Fault tolerance.**  At network scale (tens of thousands of segments x
scenarios) individual worker failures are routine, not exceptional, so the
supervisor treats them as schedulable events rather than run-enders:

* a failing shard is retried up to ``retries`` times with capped exponential
  backoff, **deterministically jittered** from the study seed
  (:func:`retry_delay`) so a rerun reproduces the schedule exactly; a
  failing attempt group charges no shard — its members re-run alone under
  the same attempt numbers, so retries count per shard;
* a pool attempt exceeding ``shard_timeout`` seconds of wall clock is
  declared hung: its worker pool is torn down (terminating the stuck
  process), lost in-flight shards requeue, and the timed-out attempt
  counts against the shard's retry budget;
* a worker killed hard (OOM, SIGKILL, ``os._exit``) surfaces as
  ``BrokenProcessPool``: the supervisor rebuilds the pool and requeues only
  the shards that were in flight — completed shards are kept;
* with ``keep_going=True`` a shard that exhausts its budget is quarantined
  into :attr:`StudyRunReport.failed_shards` (with attempt counts and error
  provenance) instead of aborting the run; without it, the last engine
  exception is re-raised (or :class:`~repro.errors.StudyExecutionError` for
  crashes/timeouts) after completed shards have been persisted;
* ``KeyboardInterrupt`` cancels pending work, persists what finished and
  returns a partial report instead of losing the run (inline, it loses at
  most the running group);
* a **programmatic cancellation hook** (``cancel=`` — any zero-argument
  callable, e.g. ``threading.Event.is_set``) does the same under caller
  control: the scenario-planning service uses it to enforce per-job
  deadlines and drain shutdowns, mapping the resulting partial report to
  an explicit ``"partial"`` job state;
* every lifecycle event (submit / finish / retry / timeout / pool rebuild /
  failure / interrupt) lands in a structured JSONL journal
  (:mod:`repro.study.journal`), by default ``run.jsonl`` beside the store.

**CRN contract.**  A case's engine seed depends only on the study seed and
the case index (:meth:`~repro.study.spec.StudySpec.case_seed`); the stochastic
engines then seed their streams ``default_rng([seed, t])`` per trial /
realization.  Shard boundaries, retries, pool rebuilds and resumes never
enter the seeding path, so the merged table is bit-identical for *any* shard
count, job count and failure history — asserted in ``tests/test_study.py``
and the fault-injection matrix ``tests/test_faults.py``.
"""

from __future__ import annotations

import time
import warnings
import weakref
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError, StudyExecutionError
from repro.faults import FaultPlan
from repro.study.engines import import_engine, run_cases
from repro.study.journal import RunJournal, resolve_journal
from repro.study.results import (
    RunRecord,
    ShardTable,
    StudyStore,
    StudyTable,
    build_table,
    merge_shards,
)
from repro.study.spec import StudySpec

if TYPE_CHECKING:
    import concurrent.futures

__all__ = ["FailedShard", "StudyRunReport", "retry_delay", "run_study",
           "shard_ranges"]

#: Default upper bound on the shard count (kept independent of ``jobs`` so a
#: resumed run finds the same shard layout regardless of its parallelism).
DEFAULT_MAX_SHARDS = 16

#: Case cap of one inline attempt group.  Every shipped study (24-140
#: cases) runs as one engine call.  A 20 000-case radio sweep's 312-case
#: shards stay singletons: uncapped, that sweep measured 45 -> 57 MB peak
#: RSS inline for no real speed gain, since a radio shard is already a
#: wide batch.
_GROUP_CASES = 256

#: Supervisor poll interval [s] while futures are in flight, and the
#: predicted CPU time of one inline attempt group under a ``cancel`` hook
#: (twice that for a group that takes the rest of its run).
_POLL_S = 0.05

#: Per-case CPU time [s] of the latest inline attempt (its thread's
#: ``time.thread_time``, storing included), per study store and spec
#: shape (:func:`_shape`): under a ``cancel`` hook a later run of the same
#: shape on the same store sizes its first group from it instead of
#: probing with one shard.  In memory only; it dies with its store.
_PACES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

#: Shapes remembered per store.  A full memo is cleared rather than
#: evicted entry by entry (one atomic call under the service's threads);
#: the cost is one more probe per shape.
_PACE_SHAPES = 64

#: Layout mismatches already warned about this process, keyed by
#: ``(compute_hash, stored layout, current layout)`` — a large resume (or a
#: service process supervising many runs) reports each mismatch once, not
#: once per call that rediscovers it.
_WARNED_LAYOUTS: set[tuple] = set()


class _RunCancelled(BaseException):
    """Internal control-flow signal: the ``cancel`` hook fired.

    Derives from :class:`BaseException` (like ``KeyboardInterrupt``) so it
    cannot be swallowed by engine-level ``except Exception`` handlers on its
    way out of the supervisor loop.
    """


def shard_ranges(case_count: int, shards: int) -> list[tuple[int, int]]:
    """Split ``case_count`` cases into ``shards`` contiguous ``[start, stop)``
    ranges whose sizes differ by at most one.

    Args:
        case_count: Total number of cases.
        shards: Requested shard count (clamped to ``case_count``).

    Returns:
        The ordered, non-empty case ranges.
    """
    if case_count < 1:
        raise ConfigurationError(f"case_count must be >= 1, got {case_count}")
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    shards = min(shards, case_count)
    bounds = [round(i * case_count / shards) for i in range(shards + 1)]
    return [(bounds[i], bounds[i + 1]) for i in range(shards)]


def _shape(spec: StudySpec) -> tuple:
    """What fixes the engine work of ``spec`` apart from its seed: runs
    that differ only in seed (a service request with a fresh seed) share
    a shape, and so a per-case pace."""
    return (spec.engine, spec.axes, spec.fixed, spec.seed_mode)


def retry_delay(seed: int, shard_start: int, attempt: int,
                base: float = 0.25, cap: float = 8.0) -> float:
    """Backoff delay [s] before re-attempting a shard — deterministic.

    Capped exponential backoff with jitter drawn from
    ``SeedSequence([seed, shard_start, attempt])``, so the whole retry
    schedule is a pure function of the study seed and the failure history:
    a rerun under the same fault plan reproduces identical wall-clock
    behaviour (up to scheduler noise), which keeps chaos tests and
    production post-mortems comparable.

    Args:
        seed: The study seed.
        shard_start: First case index of the shard (its stable identity).
        attempt: 1-based attempt number that just failed.
        base: Delay scale of the first retry [s]; ``0`` disables backoff.
        cap: Upper bound on the un-jittered delay [s].

    Returns:
        The delay in seconds (jittered into ``[0.5, 1.0] * exponential``).
    """
    if base <= 0.0:
        return 0.0
    exponential = min(cap, base * (2.0 ** (attempt - 1)))
    state = np.random.SeedSequence([int(seed), int(shard_start), int(attempt)])
    unit = state.generate_state(1, dtype=np.uint64)[0] / float(2 ** 64)
    return exponential * (0.5 + 0.5 * float(unit))


def _shard_table(start: int, stop: int, rows: list[dict]) -> ShardTable:
    """Columnize the metric rows of cases ``start, ..., stop - 1``."""
    shard: ShardTable = {"case": list(range(start, stop))}
    for metric in rows[0]:
        shard[metric] = [row[metric] for row in rows]
    return shard


def _run_shards(spec: StudySpec, context: dict, members: list[tuple]
                ) -> list[ShardTable]:
    """Evaluate one attempt over ``members``, one engine call in all.

    Each member is ``(shard index, start, stop, attempt, known)``.  The
    cases are decoded from the spec, one :meth:`StudySpec.cases` call per
    run of members whose ranges touch (O(attempt), never the grid, and
    never the cases between the members of a round-robin slice), and
    shared state comes from the per-process engine caches
    (:mod:`repro.study.engines`).  When the context carries a fault plan
    (:mod:`repro.faults`), each member's planned fault for its ``(shard,
    attempt)`` fires before anything is computed — the supervisor sees
    only the resulting failure, exactly like a real one.  Cases in
    ``known`` (reused rows) skip the engine.  Every
    engine is columnwise (a case's row does not depend on the other cases
    of the call), so the rows split back per member are bit-identical to
    one call per member.
    """
    plan = FaultPlan.from_context(context)
    if plan is not None:
        for index, start, stop, attempt, _ in members:
            plan.execute(index, attempt, study=spec, start=start, stop=stop)
    spans: list[list[int]] = []
    reused: dict = {}
    for _, start, stop, _, known in members:
        if spans and spans[-1][1] == start:
            spans[-1][1] = stop
        else:
            spans.append([start, stop])
        reused.update(known)
    todo: list[int] = []
    cases: list[dict] = []
    for start, stop in spans:
        for i, case in enumerate(spec.cases(start, stop), start):
            if i not in reused:
                todo.append(i)
                cases.append(case)
    fresh = iter(run_cases(spec.engine, cases,
                           [spec.case_seed(i) for i in todo],
                           context=context))
    return [_shard_table(start, stop, [known[i] if i in known else next(fresh)
                                       for i in range(start, stop)])
            for _, start, stop, _, known in members]


@dataclass(frozen=True)
class FailedShard:
    """Provenance of one shard quarantined after exhausting its retries.

    Attributes
    ----------
    index:
        Shard index in the run's layout.
    start / stop:
        The shard's ``[start, stop)`` case range.
    attempts:
        Total attempts made (``retries + 1`` unless the run aborted early).
    error:
        Representation of the last failure (exception ``repr`` or a
        timeout/crash description).
    kind:
        ``"error"`` (worker exception), ``"timeout"`` (shard timeout) or
        ``"crash"`` (worker process lost).
    """

    index: int
    start: int
    stop: int
    attempts: int
    error: str
    kind: str


@dataclass(frozen=True)
class StudyRunReport:
    """A finished (or partial) study run: the merged table + provenance.

    ``partial`` is True when some shards were never completed — because
    ``max_shards`` stopped the run early, a ``KeyboardInterrupt`` stopped
    it (``interrupted``), the programmatic ``cancel`` hook fired
    (``cancelled`` — a service deadline or drain), or shards were
    quarantined (``failed_shards``); re-running with the same store
    completes or re-attempts them.  ``computed_ranges`` are the case
    ranges of the shards this call computed, in completion order.
    """

    spec: StudySpec
    table: StudyTable
    shards: int
    reused_shards: int
    computed_shards: int
    jobs: int
    failed_shards: tuple[FailedShard, ...] = ()
    shard_attempts: dict = field(default_factory=dict)
    interrupted: bool = False
    cancelled: bool = False
    computed_ranges: tuple[tuple[int, int], ...] = ()

    @property
    def partial(self) -> bool:
        """True when not every shard of the layout completed successfully."""
        return self.reused_shards + self.computed_shards < self.shards

    @property
    def retried(self) -> int:
        """Total extra attempts beyond the first, across all shards."""
        return sum(max(0, n - 1) for n in self.shard_attempts.values())

    def summary(self) -> str:
        """One-line run summary for logs and the CLI."""
        if self.failed_shards:
            state = f"{len(self.failed_shards)} shards FAILED"
        elif self.cancelled:
            state = "cancelled"
        elif self.interrupted:
            state = "interrupted"
        elif self.partial:
            state = "partial"
        else:
            state = "complete"
        retries = f", {self.retried} retries" if self.retried else ""
        return (f"study {self.spec.name!r}: {len(self.table)}/"
                f"{self.spec.case_count} cases ({state}), "
                f"{self.shards} shards ({self.reused_shards} reused, "
                f"{self.computed_shards} computed{retries}), jobs={self.jobs}")


@dataclass
class _Attempt:
    """Mutable supervisor bookkeeping for one shard."""

    index: int
    start: int
    stop: int
    known: dict               # reused rows of this shard, by case index
    attempt: int = 0          # attempts started so far
    ready_at: float = 0.0     # monotonic time the next attempt may start
    last_error: BaseException | None = None
    last_kind: str = "error"

    def describe_error(self) -> str:
        if self.last_error is not None:
            return repr(self.last_error)
        return f"shard {self.index} {self.last_kind} (no exception captured)"


def _kill_pool(pool: concurrent.futures.ProcessPoolExecutor) -> None:
    """Tear a pool down hard, terminating workers that ignore shutdown.

    ``shutdown`` alone never interrupts a *running* task, so a hung worker
    would pin the process forever; terminating the worker processes is the
    only portable cancellation.  ``_processes`` is private but stable across
    supported CPython versions, and an empty mapping (pool already broken)
    degrades to a plain shutdown.
    """
    procs = getattr(pool, "_processes", None)
    processes = list(procs.values()) if isinstance(procs, dict) else []
    for process in processes:
        try:
            process.terminate()
        except (OSError, ValueError):  # pragma: no cover - already dead
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def run_study(spec: StudySpec,
              jobs: int = 1,
              shards: int | None = None,
              store: StudyStore | None = None,
              progress: Callable[[int, int, str], None] | None = None,
              max_shards: int | None = None,
              context: dict | None = None,
              retries: int = 0,
              shard_timeout: float | None = None,
              keep_going: bool = False,
              backoff_base: float = 0.25,
              journal: str | Path | RunJournal | None = None,
              cancel: Callable[[], bool] | None = None,
              only_shards: Sequence[int] | None = None,
              reuse_rows: Mapping[int, dict] | None = None
              ) -> StudyRunReport:
    """Execute a study under the supervisor and merge its shards.

    Args:
        spec: The validated study specification.
        jobs: Worker processes; ``1`` (default) runs each attempt in this
            process as the supervisor submits it.
        shards: Number of contiguous case chunks.  Defaults to
            ``min(case_count, 16)``; a resumed run must use the same shard
            layout as the run that populated the store (a differing layout
            recomputes, and is reported — see Warns below).
        store: Optional :class:`~repro.study.results.StudyStore`; each
            attempt's completed shards persist there as one bundle, and
            later runs reuse every shard its run record lists (resume).
        progress: Optional ``progress(done, total, label)`` callback invoked
            once per finished shard (reused shards report first; the
            shards of one attempt group report one after another once the
            group's engine call returns).
        max_shards: Stop after computing this many new shards (reused shards
            don't count) — a smoke/ops hook that yields a ``partial`` report;
            rerun with the same store to continue.
        context: Optional engine context of plain, picklable data:
            ``cache_dir`` (a path string) and ``fault_plan`` (a
            :meth:`repro.faults.FaultPlan.to_context` mapping).  Every
            shard attempt gets the same context, inline or in a worker
            process.
        retries: Extra attempts per failing shard (``0`` keeps the historic
            fail-fast behaviour).
        shard_timeout: Wall-clock budget [s] per pool attempt; a hung
            worker is terminated (pool rebuild) and the attempt counts
            against the retry budget.  Ignored at ``jobs=1``: an attempt
            running in this process cannot be preempted.
        keep_going: Quarantine shards that exhaust their retry budget into
            :attr:`StudyRunReport.failed_shards` instead of aborting.
        backoff_base: First-retry backoff scale [s] (``0`` disables backoff;
            see :func:`retry_delay`).
        journal: JSONL event journal — a path, an existing
            :class:`~repro.study.journal.RunJournal`, or ``None`` to default
            to ``run.jsonl`` inside the store's directory (no journal when
            the store has no disk layer).
        cancel: Optional zero-argument callable polled by the supervisor
            (e.g. ``threading.Event().is_set``).  When it returns true the
            run stops like a ``KeyboardInterrupt`` would — no new shard
            attempts start, in-flight pool attempts are abandoned (their
            workers terminated), completed shards stay persisted — and the
            report comes back with :attr:`StudyRunReport.cancelled` set.
            This is the deadline/drain hook of the scenario-planning
            service (:mod:`repro.service`).  The hook is polled once per
            supervisor round: every :data:`_POLL_S` on a pool, between
            attempts at ``jobs=1``.  There each attempt holds the cases
            that fit in :data:`_POLL_S` at the per-case CPU time last
            measured for the spec's shape (the spec without its seed) on
            ``store``, at least one shard, or the rest of the run when
            that fits in twice as much, so a cancel waits out at most one
            such group: at most about 2 x :data:`_POLL_S` of the
            attempt's CPU time, which is a few times that in wall on a
            busy host.  A shape not yet measured there first probes with
            one shard.
        only_shards: Optional shard indices (into the run's layout) this
            call is responsible for; every other shard is neither reused
            nor computed, and the report's ``shards`` total refers to the
            slice.  The shard layout itself is always the *global* one
            (``shard_ranges(case_count, shards)``), so any partition of the
            indices across workers — :mod:`repro.study.distributed` uses a
            round-robin slice — produces bundles a merge can reassemble
            bit-identically.
        reuse_rows: Optional ``{case index: {metric: value}}`` rows that
            need no computing.  A shard made only of them is stored and
            journaled as ``reused``; a mixed shard sends just its other
            cases to the engine.

    Returns:
        The :class:`StudyRunReport` with the merged
        :class:`~repro.study.results.StudyTable` (partial runs contain only
        the completed case ranges, in order).

    Warns:
        RuntimeWarning: When the store holds shards of this spec under a
            different shard layout than the current run (the resume cannot
            reuse them and recomputes; the warning names both layouts).

    Raises:
        ConfigurationError: On invalid ``jobs``/``shards``/``retries``/
            ``only_shards``.
        StudyExecutionError: When a shard exhausts its retry budget through
            crashes or timeouts and ``keep_going`` is off.  Engine
            exceptions (including injected faults) are re-raised unchanged
            after the last attempt instead.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if max_shards is not None and max_shards < 0:
        raise ConfigurationError(f"max_shards must be >= 0, got {max_shards}")
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    if shard_timeout is not None and shard_timeout <= 0:
        raise ConfigurationError(
            f"shard_timeout must be > 0, got {shard_timeout}")
    case_count = spec.case_count
    if shards is None:
        shards = min(case_count, DEFAULT_MAX_SHARDS)
    ranges = shard_ranges(case_count, shards)
    selected: set[int] | None = None
    if only_shards is not None:
        selected = {int(i) for i in only_shards}
        if not selected:
            raise ConfigurationError("only_shards must name at least one shard")
        out_of_range = sorted(i for i in selected
                              if not 0 <= i < len(ranges))
        if out_of_range:
            raise ConfigurationError(
                f"only_shards indices {out_of_range} outside the "
                f"{len(ranges)}-shard layout")
    context = dict(context or {})
    reuse_rows = reuse_rows or {}

    log = resolve_journal(journal, store)
    run_t0 = time.monotonic()
    log.emit("run_start", study=spec.name, compute_hash=spec.compute_hash,
             shards=len(ranges), jobs=jobs, retries=retries,
             shard_timeout_s=shard_timeout, keep_going=keep_going)

    done: list[ShardTable] = []
    pending: list[tuple[int, int, int]] = []  # (shard index, start, stop)
    from_rows: list[tuple[int, int, int]] = []  # shards made of reuse_rows
    # The run record is read once: it lists what is stored, bundle by
    # bundle, so no shard probes the disk on its own.
    recorded = store.run_record(spec) if store is not None else RunRecord()
    stored_shards = {} if store is None else store.load_shards(
        recorded, [r for index, r in enumerate(ranges)
                   if selected is None or index in selected])
    for index, (start, stop) in enumerate(ranges):
        if selected is not None and index not in selected:
            continue
        cached = stored_shards.get((start, stop))
        if cached is not None:
            done.append(cached)
            log.emit("reused", shard=index, start=start, stop=stop)
        elif reuse_rows and all(i in reuse_rows for i in range(start, stop)):
            from_rows.append((index, start, stop))
        else:
            pending.append((index, start, stop))

    stored = recorded.stored_ranges()
    foreign = sorted(set(stored) - set(ranges))
    if foreign:
        log.emit("layout_mismatch", stored=[list(r) for r in stored],
                 current=[list(r) for r in ranges])
        fingerprint = (spec.compute_hash, tuple(stored), tuple(ranges))
        if fingerprint not in _WARNED_LAYOUTS:
            _WARNED_LAYOUTS.add(fingerprint)
            warnings.warn(
                f"study store holds {len(foreign)} shard(s) of "
                f"{spec.name!r} under a different shard layout — stored "
                f"{len(stored)} shards {stored[0]}..{stored[-1]} vs. "
                f"current {len(ranges)}-shard layout; the mismatched "
                f"shards cannot be reused and will be recomputed (rerun "
                f"with the original --shards to reuse them)",
                RuntimeWarning, stacklevel=2)

    if max_shards is not None:
        pending = pending[:max_shards]

    if store is not None and (pending or from_rows):
        store.begin_run(spec)
    if from_rows:
        batch = [(start, stop, _shard_table(
                      start, stop, [reuse_rows[i] for i in range(start, stop)]))
                 for _, start, stop in from_rows]
        if store is not None:
            store.put_bundle(spec, batch)
        for (index, start, stop), (_, _, shard) in zip(from_rows, batch):
            done.append(shard)
            log.emit("reused", shard=index, start=start, stop=stop)
    reused = len(done)
    total = len(selected) if selected is not None else len(ranges)
    finished = reused
    if progress is not None and reused:
        progress(finished, total, f"{reused} shards reused from store")

    computed: list[tuple[int, int]] = []

    def record(group: list[_Attempt], shards: list[ShardTable],
               wall_s: float) -> None:
        """Journal and report each member of a finished attempt, then
        store the members reported so far as one bundle: a progress
        callback that interrupts mid-group leaves exactly the reported
        shards stored."""
        nonlocal finished
        cases = sum(meta.stop - meta.start for meta in group)
        members = []
        try:
            for meta, shard in zip(group, shards):
                members.append((meta.start, meta.stop, shard))
                done.append(shard)
                computed.append((meta.start, meta.stop))
                finished += 1
                # Each member is charged its case share of the attempt's
                # wall, so summing ``finish`` walls counts the engine call
                # once.
                log.emit("finish", shard=meta.index, start=meta.start,
                         stop=meta.stop, attempt=meta.attempt,
                         wall_s=wall_s * ((meta.stop - meta.start) / cases),
                         group=group[0].index)
                if progress is not None:
                    progress(finished, total,
                             f"cases [{meta.start}:{meta.stop})")
        finally:
            if store is not None and members:
                store.put_bundle(spec, members)

    jobs_meta: dict[int, _Attempt] = {
        index: _Attempt(index=index, start=start, stop=stop,
                        known={i: reuse_rows[i] for i in range(start, stop)
                               if i in reuse_rows})
        for index, start, stop in pending}
    failed: list[FailedShard] = []
    max_attempts = retries + 1

    def on_failure(meta: _Attempt, error: BaseException | None,
                   kind: str) -> bool:
        """Register a failed attempt; True when the shard may retry.  A
        shard out of attempts is quarantined under ``keep_going`` and
        otherwise ends the run with its last error."""
        meta.last_error = error
        meta.last_kind = kind
        if meta.attempt < max_attempts:
            delay = retry_delay(spec.seed, meta.start, meta.attempt,
                                base=backoff_base)
            meta.ready_at = time.monotonic() + delay
            log.emit("retry", shard=meta.index, start=meta.start,
                     stop=meta.stop, attempt=meta.attempt, delay_s=delay,
                     error=meta.describe_error(), kind=kind)
            return True
        log.emit("failure", shard=meta.index, start=meta.start,
                 stop=meta.stop, attempts=meta.attempt,
                 error=meta.describe_error(), kind=kind)
        if not keep_going:
            if error is not None:
                raise error from None
            raise StudyExecutionError(
                f"shard {meta.index} (cases [{meta.start}:{meta.stop})) "
                f"failed {meta.attempt} attempt(s) by {kind} "
                f"(see the run journal for provenance)") from None
        failed.append(FailedShard(
            index=meta.index, start=meta.start, stop=meta.stop,
            attempts=meta.attempt, error=meta.describe_error(), kind=kind))
        return False

    interrupted = False
    cancelled = False
    try:
        _supervise(spec, context, jobs_meta, record, on_failure, jobs,
                   shard_timeout, log, cancel, store)
    except KeyboardInterrupt:
        interrupted = True
        log.emit("interrupt", completed=finished)
    except _RunCancelled:
        cancelled = True
        log.emit("cancel", completed=finished)

    table = build_table(spec, merge_shards(done))
    report = StudyRunReport(
        spec=spec, table=table, shards=total, reused_shards=reused,
        computed_shards=len(computed), jobs=jobs,
        failed_shards=tuple(failed),
        shard_attempts={index: meta.attempt
                        for index, meta in jobs_meta.items() if meta.attempt},
        interrupted=interrupted, cancelled=cancelled,
        computed_ranges=tuple(computed))
    log.emit("run_end", computed=report.computed_shards,
             reused=report.reused_shards, failed=len(report.failed_shards),
             interrupted=interrupted, cancelled=cancelled,
             partial=report.partial, wall_s=time.monotonic() - run_t0)
    return report


class _Finished:
    """An inline attempt: run when submitted, then read like a pool
    future (:meth:`result` returns its value or raises its error).
    ``thread_t0`` is this thread's CPU time when the attempt started."""

    def __init__(self, fn: Callable, *args) -> None:
        self.thread_t0 = time.thread_time()
        try:
            self._value, self._error = fn(*args), None
        except Exception as exc:
            self._value, self._error = None, exc

    def result(self):
        if self._error is not None:
            raise self._error
        return self._value


def _supervise(spec, context, jobs_meta, record, on_failure, jobs,
               shard_timeout, log, cancel, store) -> None:
    """The one supervisor loop of :func:`run_study`.

    Each round polls ``cancel``, submits attempts whose backoff has
    elapsed while a slot is free, and collects the finished ones, handing
    each to ``record(group, shard tables, wall)`` once.  An attempt is one
    :func:`_run_shards` call over consecutive fresh shards of at most
    ``cap`` cases, at least one shard, or over every fresh shard queued
    when they fit in ``2 * cap`` cases (:data:`_GROUP_CASES` at most).  A
    failed group charges no shard: its members re-run alone under the same
    attempt numbers, as retries do, so retry budgets and quarantine stay
    per shard.

    At ``jobs=1`` an attempt runs when submitted (:class:`_Finished`), and
    ``cap`` is :data:`_GROUP_CASES` — under a hook, what fits in
    :data:`_POLL_S` at the CPU pace :data:`_PACES` holds for the spec's
    shape, or one shard until it holds one.  Such an attempt cannot be
    preempted by ``shard_timeout``, and a ``crash`` fault would end the
    caller.
    Otherwise at most ``jobs`` pool workers run one-shard attempts, so
    timeouts and crashes are charged per shard, and an attempt's
    ``shard_timeout`` clock starts when a worker slot takes it.
    """
    def fit(pace: float) -> int:
        """Cases of one group at ``pace`` seconds per case."""
        return (_GROUP_CASES if pace <= 0 else
                min(_GROUP_CASES, int(_POLL_S / pace)))

    def limit(meta: _Attempt) -> int:
        """Cases the group led by ``meta`` may hold: ``cap``, or every
        fresh shard queued right behind it too when all of them fit in
        ``2 * cap`` (still at most :data:`_GROUP_CASES`), so no group
        leaves a small tail call behind."""
        rest = meta.stop - meta.start
        for other, joins in queue:
            if not joins or rest > 2 * cap:
                break
            rest += other.stop - other.start
        return min(rest, _GROUP_CASES) if rest <= 2 * cap else cap

    # (shard, may join a group): split members and retries run alone.
    queue = deque((meta, True) for meta in jobs_meta.values())
    running: dict = {}  # future -> (attempt group, start time)
    if jobs == 1 or not jobs_meta:
        pool, workers, lost_errors = None, 1, ()
        shape = _shape(spec)
        # ``paces`` is shared by the service's worker threads, which may
        # clear it at any time: read and write it only through one call
        # each.
        paces = _PACES.setdefault(store, {}) if store is not None else {}
        if cancel is None:
            cap = _GROUP_CASES
        else:
            pace = paces.get(shape)
            cap = fit(pace) if pace is not None else 0
    else:
        import concurrent.futures

        workers = min(jobs, len(jobs_meta))
        lost_errors = (concurrent.futures.BrokenExecutor,)
        cap = 0
        import_engine(spec.engine)  # forked workers inherit it
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)

    def submit(group: list[_Attempt]) -> None:
        for meta in group:
            meta.attempt += 1
            log.emit("submit", shard=meta.index, start=meta.start,
                     stop=meta.stop, attempt=meta.attempt,
                     group=group[0].index)
        members = [(meta.index, meta.start, meta.stop, meta.attempt,
                    meta.known) for meta in group]
        t0 = time.monotonic()
        future = (_Finished(_run_shards, spec, context, members)
                  if pool is None else
                  pool.submit(_run_shards, spec, context, members))
        running[future] = (group, t0)

    def charge(meta: _Attempt, error: BaseException | None,
               kind: str) -> None:
        """Register a failed attempt and requeue the shard if it may
        retry."""
        if on_failure(meta, error, kind):
            queue.append((meta, False))

    def rebuild(lost_reason: str, timed_out: Sequence[_Attempt] = ()) -> None:
        """Tear down the pool and start fresh: every in-flight attempt is
        lost, charged as a timeout if it ran out of time, else a crash."""
        nonlocal pool
        lost = [meta for group, _ in running.values() for meta in group]
        running.clear()
        _kill_pool(pool)
        log.emit("pool_broken", lost=[meta.index for meta in lost],
                 reason=lost_reason)
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
        for meta in lost:
            # The in-flight attempt died with the pool: it counts against
            # the budget (a crashing shard must not retry forever), and the
            # shard re-enters the queue behind its deterministic backoff.
            charge(meta, None, "timeout" if meta in timed_out else "crash")

    try:
        while queue or running:
            if cancel is not None and cancel():
                raise _RunCancelled
            now = time.monotonic()
            # Fill free slots with attempts whose backoff has elapsed.
            for _ in range(len(queue)):
                if len(running) >= workers:
                    break
                meta, fresh = queue.popleft()
                if meta.ready_at > now:
                    queue.append((meta, fresh))  # not ready; rotate
                    continue
                group, cases = [meta], meta.stop - meta.start
                bound = limit(meta) if fresh else 0
                while queue and queue[0][1] and cases + (
                        queue[0][0].stop - queue[0][0].start) <= bound:
                    group.append(queue.popleft()[0])
                    cases += group[-1].stop - group[-1].start
                try:
                    submit(group)
                except lost_errors:
                    # The pool broke before we noticed (submit is the first
                    # call to see it): the attempt never ran, but the pool
                    # loss is real — charge it and rebuild.
                    for meta in group:
                        charge(meta, None, "crash")
                    rebuild("worker process lost (detected at submit)")
                    break
            if not running:
                if queue:  # everyone is backing off — sleep to the earliest
                    time.sleep(max(0.0, min(meta.ready_at for meta, _ in queue)
                                   - now))
                continue

            finished = (list(running) if pool is None else
                        concurrent.futures.wait(
                            list(running), timeout=_POLL_S,
                            return_when=concurrent.futures.FIRST_COMPLETED
                        ).done)
            broken = False
            for future in finished:
                group, t0 = running.pop(future)
                try:
                    shards = future.result()
                except lost_errors:
                    # A hard-killed worker poisons every in-flight future;
                    # keep collecting (a shard may still have finished in
                    # this round) and rebuild once below.
                    running[future] = (group, t0)
                    broken = True
                    continue
                except Exception as exc:
                    if len(group) == 1:
                        charge(group[0], exc, "error")
                        continue
                    for meta in group:
                        meta.attempt -= 1
                    log.emit("group_split", group=group[0].index,
                             shards=[meta.index for meta in group],
                             error=repr(exc))
                    queue.extendleft((meta, False) for meta in reversed(group))
                    continue
                record(group, shards, time.monotonic() - t0)
                if pool is None:
                    # The hook waits out the whole attempt, storing included.
                    # The pace is the attempt's own CPU time: time the CPU
                    # spends on other threads and processes (another
                    # service job) does not shrink the next group.
                    pace = (time.thread_time() - future.thread_t0) / sum(
                        meta.stop - meta.start for meta in group)
                    if shape not in paces and len(paces) >= _PACE_SHAPES:
                        paces.clear()
                    paces[shape] = pace
                    if cancel is not None:
                        cap = fit(pace)
            if broken:
                rebuild("worker process lost (BrokenProcessPool)")
                continue

            # Wall-clock timeout: a hung worker cannot be cancelled through
            # the future, so the pool is torn down and rebuilt.
            if shard_timeout is not None:
                now = time.monotonic()
                timed_out = [meta for group, t0 in running.values()
                             if now - t0 > shard_timeout for meta in group]
                for meta in timed_out:
                    log.emit("timeout", shard=meta.index, start=meta.start,
                             stop=meta.stop, attempt=meta.attempt,
                             timeout_s=shard_timeout)
                if timed_out:
                    rebuild(f"shard timeout after {shard_timeout}s",
                            timed_out)
    finally:
        if pool is not None:
            _kill_pool(pool)
