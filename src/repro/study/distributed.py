"""Distributed study execution: shard slices, validated merges, refresh.

Three primitives take the sharded study runner beyond one process pool,
while keeping its core guarantee — the merged table is **bit-identical**
to a single-machine run — intact:

:func:`run_shard_slice` (CLI ``repro study shard --index K --of N``)
    Executes worker ``K``'s slice of the *global* shard layout into its own
    :class:`~repro.study.results.StudyStore` and signs a
    :class:`~repro.study.manifest.ShardManifest` over the result.  The
    slice is a round-robin filter over shard indices (:func:`slice_shards`)
    — never a re-layout — so every worker cuts the same
    :func:`~repro.study.runner.shard_ranges` and the CRN seeding
    (:meth:`~repro.study.spec.StudySpec.case_seed`, a pure function of the
    case index) is untouched by how the work is split.  Each slice runs
    under the full supervisor (retries, timeouts, fault plans, journal).

:func:`merge_manifests` (CLI ``repro study merge``)
    Reassembles one study from worker manifests, refusing to produce a
    table from inputs it cannot prove consistent: one spec hash, one
    layout, disjoint and complete shard coverage, bundle
    checksums matching the manifests' signed claims — each violation is a
    structured :class:`~repro.errors.MergeValidationError` naming the
    invariant (``kind``) and the evidence (``details``).  It then replays
    every worker's run journal into the merged provenance journal and
    **recomputes a deterministic sample of cases inline**, comparing
    bit-for-bit (NaN-aware) against the workers' stored rows — the CRN
    spot-check that turns "the manifests look right" into "the numbers are
    the numbers a single machine would have produced".

:func:`refresh_study` (CLI ``repro study refresh``)
    Rolling re-evaluation for periodically updated inputs (timetable /
    demand feeds): diffs per-case content fingerprints
    (:func:`case_fingerprint`) of the updated spec against the previous
    run's store and hands the unchanged rows to
    :func:`~repro.study.runner.run_study`, which executes **only** the
    changed cases under the supervisor — O(changed), not O(grid).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.errors import (
    ConfigurationError,
    ManifestError,
    MergeValidationError,
)
from repro.study.journal import resolve_journal, scan_journal
from repro.study.manifest import (
    ShardManifest,
    build_manifest,
    default_manifest_name,
    load_manifest,
    write_manifest,
)
from repro.study.results import (
    StudyStore,
    StudyTable,
    build_table,
    merge_shards,
)
from repro.study.runner import (
    DEFAULT_MAX_SHARDS,
    StudyRunReport,
    run_study,
    shard_ranges,
)
from repro.study.spec import StudySpec

__all__ = ["MergeReport", "RefreshReport", "SliceRunReport",
           "case_fingerprint", "merge_manifests", "refresh_study",
           "run_shard_slice", "slice_shards"]

#: Default number of cases the merge recomputes for the CRN spot-check.
DEFAULT_CRN_SAMPLE = 3


def slice_shards(shard_count: int, index: int, of: int) -> list[int]:
    """Round-robin slice of the shard indices owned by worker ``index``.

    Worker ``K`` of ``N`` owns every shard whose index is ``K`` modulo
    ``N`` — a partition of the *global* layout, so any ``N`` and any
    assignment of workers to machines reassembles to the same shard set.
    With more workers than shards, trailing workers own nothing (an empty
    list, which is a valid — empty — slice).

    Args:
        shard_count: Shards in the global layout.
        index: This worker's 0-based position.
        of: Total workers in the split.

    Returns:
        The sorted shard indices of the slice.
    """
    if of < 1:
        raise ConfigurationError(f"worker count must be >= 1, got {of}")
    if not 0 <= index < of:
        raise ConfigurationError(
            f"worker index must be in [0, {of}), got {index}")
    if shard_count < 1:
        raise ConfigurationError(
            f"shard_count must be >= 1, got {shard_count}")
    return [i for i in range(shard_count) if i % of == index]


@dataclass(frozen=True)
class SliceRunReport:
    """One worker's finished slice: run report + signed manifest.

    Attributes
    ----------
    report:
        The slice's :class:`~repro.study.runner.StudyRunReport`
        (``None`` for an empty slice — more workers than shards).
    manifest:
        The signed :class:`~repro.study.manifest.ShardManifest`; covers
        only the shards that actually completed, so a partial slice run
        leaves a truthful (incomplete) manifest a retry can replace.
    manifest_path:
        Where the manifest was written.
    """

    report: StudyRunReport | None
    manifest: ShardManifest
    manifest_path: Path

    @property
    def complete(self) -> bool:
        """True when every shard of the slice completed and is attested."""
        if self.report is None:
            return True
        return (not self.report.partial
                and not self.report.failed_shards)

    def summary(self) -> str:
        """One-line slice summary for logs and the CLI."""
        state = "complete" if self.complete else "partial"
        return (f"worker {self.manifest.worker}/{self.manifest.of} of "
                f"{self.manifest.study!r}: {len(self.manifest.shards)} "
                f"shard(s) attested ({state}), manifest "
                f"{self.manifest_path.name}")


def run_shard_slice(spec: StudySpec, index: int, of: int, store: StudyStore,
                    *, jobs: int = 1, shards: int | None = None,
                    context: dict | None = None, retries: int = 0,
                    shard_timeout: float | None = None,
                    keep_going: bool = False,
                    progress: Callable[[int, int, str], None] | None = None,
                    journal=None, cancel: Callable[[], bool] | None = None,
                    manifest_path: str | Path | None = None
                    ) -> SliceRunReport:
    """Execute worker ``index``'s slice of a study and sign its manifest.

    The global shard layout is ``shard_ranges(case_count, shards)`` — the
    same layout every other worker of the split derives — and this call
    runs only the :func:`slice_shards` subset, under the full supervisor
    (retries, timeouts, fault plans, journal, cancel hook).  On return the
    worker's store holds its shard bundles and the signed manifest attests
    to every one that completed.

    Args:
        spec: The validated study specification.
        index: This worker's 0-based position in the split.
        of: Total workers in the split.
        store: The worker's own store (must have a disk layer — the
            manifest attests on-disk bundles).
        jobs / shards / context / retries / shard_timeout / keep_going /
        progress / journal / cancel:
            Forwarded to :func:`~repro.study.runner.run_study`; ``shards``
            is the **global** shard count (identical across workers).
        manifest_path: Manifest output file; defaults to
            :func:`~repro.study.manifest.default_manifest_name` inside the
            store directory.

    Returns:
        The :class:`SliceRunReport`.

    Raises:
        ConfigurationError: On an invalid split or a store without a disk
            layer (plus everything :func:`~repro.study.runner.run_study`
            raises).
        ManifestError: When a completed shard's bundle cannot be verified
            at attestation time.
    """
    if store is None or store.cache_dir is None:
        raise ConfigurationError(
            "a shard slice needs a store with a disk layer — the manifest "
            "attests to on-disk bundles")
    case_count = spec.case_count
    if shards is None:
        shards = min(case_count, DEFAULT_MAX_SHARDS)
    layout = shard_ranges(case_count, shards)
    indices = slice_shards(len(layout), index, of)
    log = resolve_journal(journal, store)

    report: StudyRunReport | None = None
    if indices:
        report = run_study(
            spec, jobs=jobs, shards=len(layout), store=store,
            progress=progress, context=context, retries=retries,
            shard_timeout=shard_timeout, keep_going=keep_going,
            journal=log, cancel=cancel, only_shards=indices)
    # Attest only what verifiably completed: a partial or keep_going run
    # signs a truthful subset, and the merge's coverage check reports the
    # gap as "missing" rather than trusting an optimistic claim.  A
    # complete run claims its whole slice, which build_manifest verifies
    # once per bundle.
    completed = indices
    if report is not None and report.partial:
        verified = store.verified_shards(spec, [layout[i] for i in indices])
        completed = [i for i in indices if layout[i] in verified]
    manifest = build_manifest(spec, store, layout, completed,
                              worker=index, of=of)
    if manifest_path is None:
        manifest_path = store.cache_dir / default_manifest_name(
            spec, index, of)
    path = write_manifest(manifest, manifest_path)
    log.emit("manifest", path=str(path), worker=index, of=of,
             shards=len(manifest.shards))
    return SliceRunReport(report=report, manifest=manifest,
                          manifest_path=path)


# -- merge --------------------------------------------------------------------


def _same_value(a, b) -> bool:
    """Bit-for-bit equality with NaN == NaN (the infeasible-case marker)."""
    a_float = isinstance(a, (float, np.floating))
    b_float = isinstance(b, (float, np.floating))
    if a_float and b_float:
        if math.isnan(a) and math.isnan(b):
            return True
        return np.float64(a).tobytes() == np.float64(b).tobytes()
    return a == b


def _crn_sample_indices(case_count: int, sample: int) -> list[int]:
    """Deterministic evenly-spaced case sample (always includes the ends)."""
    sample = max(1, min(int(sample), case_count))
    if sample == 1:
        return [0]
    return sorted({(k * (case_count - 1)) // (sample - 1)
                   for k in range(sample)})


@dataclass(frozen=True)
class MergeReport:
    """A validated merge: the reassembled table + its provenance.

    Attributes
    ----------
    spec:
        The study the merge was validated against.
    table:
        The merged :class:`~repro.study.results.StudyTable` —
        bit-identical (NaN-aware) to a single-machine run.
    manifests:
        The verified worker manifests, in worker order.
    crn_cases:
        Case indices the CRN spot-check recomputed inline.
    replayed_events:
        Worker journal events replayed into the merged journal.
    """

    spec: StudySpec
    table: StudyTable
    manifests: tuple[ShardManifest, ...]
    crn_cases: tuple[int, ...]
    replayed_events: int

    def summary(self) -> str:
        """One-line merge summary for logs and the CLI."""
        shards = sum(len(m.shards) for m in self.manifests)
        return (f"merged {self.spec.name!r}: {len(self.table)}/"
                f"{self.spec.case_count} cases from "
                f"{len(self.manifests)} worker(s), {shards} shards, "
                f"CRN-checked cases {list(self.crn_cases)}, "
                f"{self.replayed_events} journal events replayed")


def merge_manifests(spec: StudySpec, manifest_paths,
                    *, out_store: StudyStore | None = None,
                    journal=None, crn_sample: int = DEFAULT_CRN_SAMPLE,
                    context: dict | None = None) -> MergeReport:
    """Validate worker manifests and reassemble the single-machine table.

    Validation order (first violation wins; each raises a structured
    :class:`~repro.errors.MergeValidationError` whose ``kind`` names the
    invariant):

    1. ``spec_hash`` — every manifest must attest this spec's
       ``compute_hash`` (also case count / engine / seeding), so stale
       manifests from an earlier spec revision are refused;
    2. ``layout`` — every manifest must declare the same canonical shard
       layout, and every shard entry's range must match it;
    3. ``overlap`` / ``missing`` — shard ownership must be disjoint and
       must cover the full layout;
    4. ``checksum`` — each bundle on disk (read from the directory next to
       its manifest) must carry exactly the checksum its manifest signed,
       and hold each claimed shard's cases at the signed row offset;
    5. ``crn`` — a deterministic sample of cases is recomputed inline and
       compared bit-for-bit (NaN-aware) against the stored rows.

    Args:
        spec: The study to merge (the single source of truth).
        manifest_paths: The worker manifest files; each worker's shard
            bundles (and optional ``run.jsonl``) are read from the
            manifest's directory.
        out_store: Optional store the merged shards are copied into, one
            bundle per worker (becomes a normal single-machine store:
            resumable, refreshable, servable).
        journal: Merged provenance journal — a path, a
            :class:`~repro.study.journal.RunJournal`, or ``None`` to
            default to ``merge.jsonl`` in ``out_store`` (disabled without
            one).  Every worker's journal is replayed into it verbatim.
        crn_sample: Cases to recompute for the CRN spot-check (clamped to
            the case count; at least 1).
        context: Optional engine context for the spot-check recomputation
            (e.g. ``cache_dir``).

    Returns:
        The :class:`MergeReport` with the merged table.

    Raises:
        ManifestError: When a manifest is unreadable, torn or fails its
            signature.
        MergeValidationError: On any violated merge invariant (see above).
        ConfigurationError: When no manifests are given.
    """
    paths = [Path(p) for p in manifest_paths]
    if not paths:
        raise ConfigurationError("merge needs at least one manifest")
    manifests = [load_manifest(p) for p in paths]
    order = sorted(range(len(paths)), key=lambda i: manifests[i].worker)
    manifests = [manifests[i] for i in order]
    paths = [paths[i] for i in order]

    log = resolve_journal(journal, out_store, "merge.jsonl")
    t0 = time.monotonic()
    log.emit("merge_start", study=spec.name, compute_hash=spec.compute_hash,
             manifests=len(manifests),
             shards=sum(len(m.shards) for m in manifests))

    # 1. spec identity — refuse stale or foreign manifests.
    for manifest, path in zip(manifests, paths):
        stale = {}
        if manifest.compute_hash != spec.compute_hash:
            stale["compute_hash"] = manifest.compute_hash
        if manifest.case_count != spec.case_count:
            stale["case_count"] = manifest.case_count
        if manifest.engine != spec.engine:
            stale["engine"] = manifest.engine
        if manifest.seed != int(spec.seed) or manifest.seed_mode != spec.seed_mode:
            stale["seeding"] = [manifest.seed, manifest.seed_mode]
        if stale:
            raise MergeValidationError(
                f"manifest {path.name} (worker {manifest.worker}) attests "
                f"a different study revision than the merge spec "
                f"{spec.name!r} — fields {sorted(stale)} disagree (a stale "
                f"manifest from before a spec change?)",
                kind="spec_hash", manifest=str(path),
                expected=spec.compute_hash, **stale)

    # 2. one canonical layout, and every entry consistent with it.
    layout = manifests[0].layout
    canonical = tuple(shard_ranges(spec.case_count, len(layout)))
    if layout != canonical:
        raise MergeValidationError(
            f"manifest {paths[0].name} declares a non-canonical "
            f"{len(layout)}-shard layout for {spec.case_count} cases",
            kind="layout", declared=[list(r) for r in layout],
            canonical=[list(r) for r in canonical])
    for manifest, path in zip(manifests, paths):
        if manifest.layout != layout:
            raise MergeValidationError(
                f"manifest {path.name} (worker {manifest.worker}) declares "
                f"a different shard layout than worker "
                f"{manifests[0].worker} — the split never agreed on one "
                f"layout",
                kind="layout", manifest=str(path),
                declared=[list(r) for r in manifest.layout],
                expected=[list(r) for r in layout])
        for entry in manifest.shards:
            if (not 0 <= entry.index < len(layout)
                    or layout[entry.index] != (entry.start, entry.stop)):
                raise MergeValidationError(
                    f"manifest {path.name}: shard entry {entry.index} "
                    f"claims cases [{entry.start}:{entry.stop}), which is "
                    f"not range {entry.index} of the declared layout",
                    kind="layout", manifest=str(path), shard=entry.index,
                    claimed=[entry.start, entry.stop])

    # 3. disjoint, complete coverage of the layout.
    owners: dict[int, int] = {}
    for manifest in manifests:
        for entry in manifest.shards:
            if entry.index in owners:
                raise MergeValidationError(
                    f"shard {entry.index} (cases "
                    f"[{entry.start}:{entry.stop})) is claimed by both "
                    f"worker {owners[entry.index]} and worker "
                    f"{manifest.worker}",
                    kind="overlap", shard=entry.index,
                    workers=[owners[entry.index], manifest.worker])
            owners[entry.index] = manifest.worker
    missing = sorted(set(range(len(layout))) - set(owners))
    if missing:
        raise MergeValidationError(
            f"no manifest covers shard(s) {missing} of the "
            f"{len(layout)}-shard layout — the worker set is incomplete "
            f"(a worker failed, or its manifest was not collected)",
            kind="missing", shards=missing,
            ranges=[list(layout[i]) for i in missing])

    # 4. bundles on disk match the signed claims; collect the raw tables
    # from the same read that verified them, one read per bundle.
    verified = []  # per worker: [(shard entry, raw table), ...]
    case_owner: dict[int, int] = {}
    for manifest, path in zip(manifests, paths):
        worker_store = StudyStore(cache_dir=path.parent)
        tables = []
        for checksum, entries in manifest.bundles().items():
            loaded = worker_store.load_verified(checksum)
            table = None if loaded is None else loaded[0]
            for entry in entries:
                rows = slice(entry.offset,
                             entry.offset + entry.stop - entry.start)
                if table is None or table["case"][rows] != list(
                        range(entry.start, entry.stop)):
                    raise MergeValidationError(
                        f"shard {entry.index} of worker {manifest.worker}: "
                        f"bundle {worker_store.bundle_path(checksum).name} "
                        f"{'is missing or unreadable' if table is None else 'does not hold its cases'} "
                        f"— the store was modified after the manifest "
                        f"signed it",
                        kind="checksum", manifest=str(path),
                        shard=entry.index, expected=checksum,
                        actual=None if loaded is None else loaded[1])
                tables.append((entry, {name: column[rows]
                                       for name, column in table.items()}))
                for case in range(entry.start, entry.stop):
                    case_owner[case] = manifest.worker
        verified.append(tables)

    # Replay every worker's journal into the merged provenance journal.
    replayed = 0
    for manifest, path in zip(manifests, paths):
        events, _ = scan_journal(path.parent / "run.jsonl")
        log.emit("worker_replay", worker=manifest.worker,
                 source=str(path.parent / "run.jsonl"), events=len(events))
        for record in events:
            log.append(record)
        replayed += len(events)

    raw = merge_shards([table for tables in verified
                        for _, table in tables])

    # 5. CRN spot-check: recompute a deterministic case sample inline and
    # compare bit-for-bit against what the workers stored.
    from repro.study.engines import STUDY_ENGINES, run_cases

    metrics = list(STUDY_ENGINES[spec.engine].metrics)
    sample = _crn_sample_indices(spec.case_count, crn_sample)
    log.emit("merge_crn_check", sampled=len(sample), cases=sample)
    row_of = {int(c): r for r, c in enumerate(raw["case"])}
    recomputed = run_cases(spec.engine, [spec.case(i) for i in sample],
                           [spec.case_seed(i) for i in sample],
                           context=context)
    for i, fresh in zip(sample, recomputed):
        stored_row = {m: raw[m][row_of[i]] for m in metrics}
        for metric in metrics:
            if not _same_value(stored_row[metric], fresh[metric]):
                raise MergeValidationError(
                    f"CRN invariance violated at case {i}, metric "
                    f"{metric!r}: worker {case_owner[i]} "
                    f"stored {stored_row[metric]!r} but an inline "
                    f"recomputation produced {fresh[metric]!r} — the "
                    f"worker's environment diverged from this one",
                    kind="crn", case=i, metric=metric,
                    worker=case_owner[i],
                    stored=stored_row[metric], recomputed=fresh[metric])

    # Everything proved out: copy the shards into the merged store, one
    # bundle per worker (making it a normal single-machine store), and
    # build the final table.
    if out_store is not None:
        out_store.begin_run(spec)
        for tables in verified:
            if tables:
                out_store.put_bundle(spec, [(entry.start, entry.stop, table)
                                            for entry, table in tables])

    table = build_table(spec, raw)
    log.emit("merge_end", rows=len(table),
             shards=sum(len(m.shards) for m in manifests),
             workers=len(manifests), wall_s=time.monotonic() - t0)
    return MergeReport(spec=spec, table=table, manifests=tuple(manifests),
                       crn_cases=tuple(sample),
                       replayed_events=replayed)


# -- rolling re-evaluation ----------------------------------------------------


def case_fingerprint(spec: StudySpec, index: int,
                     case: dict | None = None) -> str:
    """Content fingerprint of one case: parameters + engine + CRN seed.

    Two cases with the same fingerprint are guaranteed to produce
    bit-identical engine rows (same resolved parameters, same engine, same
    seed), regardless of their position in their respective studies —
    which is exactly the reuse criterion of :func:`refresh_study`.

    Args:
        spec: The study the case belongs to.
        index: The case index (enters through
            :meth:`~repro.study.spec.StudySpec.case_seed`).
        case: The case parameters; decoded with
            :meth:`~repro.study.spec.StudySpec.case` when omitted.

    Returns:
        A SHA-256 hex digest.
    """
    import hashlib

    from repro.scenario.cache import content_token

    if case is None:
        case = spec.case(index)
    token = content_token((spec.engine, tuple(sorted(case.items())),
                           spec.case_seed(index)))
    return hashlib.sha256(token.encode()).hexdigest()


@dataclass(frozen=True)
class RefreshReport:
    """A finished rolling re-evaluation: the new table + the diff.

    Attributes
    ----------
    spec / previous:
        The updated and the superseded study specification.
    table:
        The table of the updated spec (completed shards only if partial).
    changed:
        Case indices (of the updated spec) this call computed.
    reused:
        Table rows this call did not compute.
    partial:
        True when an interrupt stopped the run; rerun to finish it.
    """

    spec: StudySpec
    previous: StudySpec
    table: StudyTable
    changed: tuple[int, ...]
    reused: int
    partial: bool = False

    def summary(self) -> str:
        """One-line refresh summary for logs and the CLI."""
        state = " — partial, rerun to finish" if self.partial else ""
        return (f"refreshed {self.spec.name!r}: {len(self.table)} cases "
                f"({len(self.changed)} recomputed, {self.reused} reused "
                f"from the previous run){state}")


def refresh_study(spec: StudySpec, previous: StudySpec, store: StudyStore,
                  *, context: dict | None = None,
                  shards: int | None = None,
                  journal=None,
                  progress: Callable[[int, int, str], None] | None = None
                  ) -> RefreshReport:
    """Re-evaluate an updated spec, recomputing only hash-changed cases.

    For every case of the updated ``spec``, its :func:`case_fingerprint`
    is looked up among the fingerprints of ``previous``'s stored rows;
    matches are reused verbatim (bit-exact — the fingerprint proves the
    engine inputs are identical) as the ``reuse_rows`` of a
    :func:`~repro.study.runner.run_study` call that computes only the
    remainder, under the supervisor, into ``store`` as a normal shard set
    of the updated spec (resumable, mergeable, refreshable again).  A
    periodic feed update costs O(changed cases) instead of O(grid); a
    failed or interrupted refresh resumes when run again.

    Args:
        spec: The updated study specification.
        previous: The specification whose results already live in
            ``store`` (a differing engine or seeding simply matches no
            fingerprints and recomputes everything).
        store: The store holding the previous run's shards; receives the
            updated spec's shards.
        context: Optional engine context (``cache_dir``, ``fault_plan`` —
            see :func:`~repro.study.runner.run_study`).
        shards: Shard count for the updated spec's layout (defaults like
            :func:`~repro.study.runner.run_study`).
        journal: JSONL journal — a path, a
            :class:`~repro.study.journal.RunJournal`, or ``None`` to
            default to ``run.jsonl`` in the store directory.
        progress: Optional ``progress(done, total, label)`` callback, per
            shard as in :func:`~repro.study.runner.run_study`.

    Returns:
        The :class:`RefreshReport` with the updated table.

    Raises:
        ConfigurationError: When the store has no disk layer.
    """
    if store is None or store.cache_dir is None:
        raise ConfigurationError(
            "refresh needs a store with a disk layer — it diffs against "
            "the previous run's persisted shards")

    log = resolve_journal(journal, store)
    t0 = time.monotonic()
    log.emit("refresh_start", study=spec.name,
             compute_hash=spec.compute_hash,
             previous_hash=previous.compute_hash, cases=spec.case_count)

    from repro.study.engines import STUDY_ENGINES

    metrics = list(STUDY_ENGINES[spec.engine].metrics)

    # Index the previous run's rows by content fingerprint.
    previous_rows: dict[str, dict] = {}
    prev_cases = previous.cases()
    recorded = store.run_record(previous)
    for shard in store.load_shards(recorded,
                                   recorded.stored_ranges()).values():
        if not set(metrics) <= set(shard):
            continue
        for r, case_index in enumerate(shard["case"]):
            if 0 <= case_index < len(prev_cases):
                fingerprint = case_fingerprint(previous, case_index,
                                               prev_cases[case_index])
                previous_rows[fingerprint] = {m: shard[m][r]
                                              for m in metrics}

    # Diff the updated grid against it.
    rows = {i: previous_rows[fingerprint]
            for i, case in enumerate(spec.cases())
            if (fingerprint := case_fingerprint(spec, i, case))
            in previous_rows}

    report = run_study(spec, shards=shards, store=store, progress=progress,
                       context=context, journal=log, reuse_rows=rows)
    changed = tuple(sorted(i for start, stop in report.computed_ranges
                           for i in range(start, stop) if i not in rows))
    reused = len(report.table) - len(changed)
    log.emit("refresh_end", changed=len(changed), reused=reused,
             rows=len(report.table), partial=report.partial,
             wall_s=time.monotonic() - t0)
    return RefreshReport(spec=spec, previous=previous, table=report.table,
                         changed=changed, reused=reused,
                         partial=report.partial)
