"""Unified study results: tidy tables, CSV/JSON writers, shard store.

A study run produces one :class:`StudyTable` — a column-oriented table with
one row per case, carrying the case index, every axis value and every metric
(engine metrics, optionally filtered, plus derived metrics).  The table
writes as

* **long** (tidy) CSV — one row per ``(case, metric)`` with per-axis columns,
  the layout downstream dataframe tooling melts/pivots for free;
* **wide** CSV — one row per case, one column per metric;
* JSON — a provenance document (spec echo + wide records).

:class:`StudyStore` is the disk layer of the sharded runner.  The raw engine
metrics of the shards completed together — one supervisor attempt, a
refresh's carried-over rows, one worker's shards in a merge — persist as
one checksummed ``<checksum>.bundle`` file (the same atomic
write-then-rename :class:`~repro.scenario.cache.ArrayCache` machinery as the
profile and weather caches), named after its content checksum.  A per-spec,
append-only run record, ``{compute_hash[:40]}-run.jsonl``, indexes them: a
header line ``{study, compute_hash, version}`` when a run with
pending work starts, then one line per bundle, written after its rename,
mapping each member's case range to the bundle and its row slice
(:class:`RunRecord`).  A run reads the record once and each bundle it needs
once, and never lists the directory; an interrupted run resumes from its
recorded shards, and the merged table is bit-identical to an uninterrupted
run.  A missing, torn or checksum-failing bundle (bit rot, injected faults)
is quarantined into a sidecar directory and exactly its member shards
recompute instead of poisoning the resume; a torn last record line (a
killed writer) is skipped, so its bundle's shards recompute too.  A store
written by an older release has no run record and is not read: its shards
recompute.
"""

from __future__ import annotations

import csv
import fcntl
import io
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError
from repro.reporting.series import write_csv
from repro.reporting.tables import format_table
from repro.scenario.cache import ArrayCache
from repro.study.expressions import compile_expression
from repro.study.journal import scan_journal
from repro.study.spec import StudySpec

__all__ = ["RunRecord", "ShardTable", "StudyTable", "StudyStore",
           "build_table", "merge_shards"]

#: Raw per-shard payload: ``{"case": [...], metric: [...], ...}`` columns.
ShardTable = dict


@dataclass(frozen=True)
class StudyTable:
    """Column-oriented study results: one row per evaluated case.

    Attributes
    ----------
    name / engine:
        Provenance echoed from the :class:`~repro.study.spec.StudySpec`.
    axis_names:
        Sweep axis column names, in declaration order.
    metric_names:
        Metric column names (filtered engine metrics + derived), in order.
    columns:
        ``{"case": [...], <axis>: [...], <metric>: [...]}`` — equal-length
        lists; ``case`` is the stable case index within the study.
    """

    name: str
    engine: str
    axis_names: tuple[str, ...]
    metric_names: tuple[str, ...]
    columns: dict

    def __post_init__(self) -> None:
        lengths = {name: len(values) for name, values in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise ConfigurationError(f"column lengths differ: {lengths}")

    def __len__(self) -> int:
        return len(self.columns["case"])

    # -- layouts -------------------------------------------------------------

    def wide(self) -> dict:
        """The per-case (wide) column mapping, ordered case/axes/metrics."""
        names = ("case",) + self.axis_names + self.metric_names
        return {name: list(self.columns[name]) for name in names}

    def long(self) -> dict:
        """Tidy long-format columns: one row per ``(case, metric)``.

        Columns: ``case``, every axis, ``metric`` (the metric name) and
        ``value``.  Metric order cycles fastest, so all metrics of one case
        are adjacent — the layout that melts cleanly into dataframes.
        """
        n = len(self)
        repeat = len(self.metric_names)
        out = {"case": [c for c in self.columns["case"] for _ in range(repeat)]}
        for axis in self.axis_names:
            out[axis] = [v for v in self.columns[axis] for _ in range(repeat)]
        out["metric"] = list(self.metric_names) * n
        out["value"] = [self.columns[m][i]
                        for i in range(n) for m in self.metric_names]
        return out

    # -- writers -------------------------------------------------------------

    def write_csv(self, path: str | Path, layout: str = "long") -> Path:
        """Write the table as CSV.

        The long layout streams: each case's ``case,axis…`` prefix is
        formatted once and the file receives bounded chunks, so memory stays
        O(chunk) however large the table.  The bytes equal
        :func:`~repro.reporting.series.series_to_csv` of :meth:`long`.

        Args:
            path: Output file (parent directories are created).
            layout: ``"long"`` (tidy, default) or ``"wide"``.

        Returns:
            The resolved path.
        """
        if layout == "long":
            return self._write_long_csv(Path(path))
        if layout == "wide":
            return write_csv(path, self.wide())
        raise ConfigurationError(
            f"unknown CSV layout {layout!r}; expected 'long' or 'wide'")

    def _write_long_csv(self, path: Path) -> Path:
        cell = _CsvCells()
        header = ("case",) + self.axis_names + ("metric", "value")
        metrics = [cell(name) for name in self.metric_names]
        prefix_columns = [self.columns["case"]] + [
            self.columns[axis] for axis in self.axis_names]
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write(",".join(map(cell, header)) + "\r\n")
            for lo in range(0, len(self), _CSV_CHUNK_CASES):
                hi = lo + _CSV_CHUNK_CASES
                prefixes = [",".join(parts) + "," for parts in zip(
                    *(cell.column(c[lo:hi]) for c in prefix_columns))]
                values = [cell.column(self.columns[name][lo:hi])
                          for name in self.metric_names]
                out.write("".join([
                    f"{prefix}{metric},{value}\r\n"
                    for prefix, *row in zip(prefixes, *values)
                    for metric, value in zip(metrics, row)]))
        return path

    def to_document(self, metadata: dict | None = None) -> dict:
        """The JSON-ready provenance document (study id + wide records).

        The exact structure :meth:`write_json` persists — also what the
        scenario-planning service (:mod:`repro.service`) returns from its
        result endpoint, so a CLI ``--json`` file and an HTTP response body
        for the same study are interchangeable.  NaN cells (infeasible
        cases) become ``None`` so the document is strict JSON.

        Args:
            metadata: Optional mapping embedded verbatim under a
                ``"metadata"`` key (e.g. a merge's worker count).

        Returns:
            A plain dict with ``study``/``engine``/``axes``/``metrics``/
            ``rows`` keys.
        """
        wide = self.wide()
        names = list(wide)
        rows = [{name: _json_cell(wide[name][i]) for name in names}
                for i in range(len(self))]
        document = {
            "study": self.name,
            "engine": self.engine,
            "axes": list(self.axis_names),
            "metrics": list(self.metric_names),
            "rows": rows,
        }
        if metadata:
            document["metadata"] = dict(metadata)
        return document

    def write_json(self, path: str | Path, metadata: dict | None = None) -> Path:
        """Write a JSON provenance document (study id + wide records).

        NaN cells (infeasible cases) are serialized as ``null`` so the output
        is strict JSON.  ``metadata`` (e.g. a merge's worker count)
        is embedded verbatim under a ``"metadata"`` key when given (see
        :meth:`to_document`).
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        document = self.to_document(metadata)
        path.write_text(json.dumps(document, indent=2) + "\n")
        return path

    # -- display -------------------------------------------------------------

    def table(self, limit: int = 20) -> str:
        """Formatted preview of the first ``limit`` rows (wide layout)."""
        wide = self.wide()
        names = list(wide)
        shown = min(len(self), limit)
        rows = [[wide[name][i] for name in names] for i in range(shown)]
        suffix = "" if shown == len(self) else f" (first {shown} of {len(self)})"
        return format_table(
            names, rows,
            title=f"study {self.name}: {len(self)} cases, "
                  f"{self.engine} engine{suffix}")


#: Cases per chunk the long CSV writer formats and writes at once.
_CSV_CHUNK_CASES = 2048

_NUMBER_TYPES = {int, float}


class _CsvCells:
    """CSV cell formatter with the bytes :mod:`csv`'s default dialect writes.

    Numbers format with ``str`` (what :mod:`csv` calls on them); any other
    cell goes through a real ``csv.writer`` once per distinct text, so
    quoting of ``,``, ``"`` and line breaks is :mod:`csv`'s own.
    """

    def __init__(self) -> None:
        self._quoted: dict[str, str] = {}
        self._buffer = io.StringIO()
        self._writer = csv.writer(self._buffer)

    def __call__(self, value) -> str:
        if isinstance(value, (int, float)):
            return str(value)
        text = "" if value is None else str(value)
        quoted = self._quoted.get(text)
        if quoted is None:
            self._buffer.seek(0)
            self._buffer.truncate()
            # A leading empty field keeps csv's lone-empty-field rule out.
            self._writer.writerow(("", text))
            quoted = self._quoted[text] = self._buffer.getvalue()[1:-2]
        return quoted

    def column(self, values: list) -> list[str]:
        """Formatted cells of one column slice."""
        if set(map(type, values)) <= _NUMBER_TYPES:
            return list(map(str, values))
        return [self(v) for v in values]


def _json_cell(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


# -- assembly -----------------------------------------------------------------


def merge_shards(shards: list[ShardTable]) -> ShardTable:
    """Concatenate raw shard tables in case order.

    Args:
        shards: Shard payloads (each with a ``case`` column); may arrive in
            any completion order.

    Returns:
        One raw table sorted by first case index of each shard.

    Raises:
        ConfigurationError: If shard column sets disagree or case ranges
            overlap.
    """
    if not shards:
        return {"case": []}
    ordered = sorted((s for s in shards if s["case"]),
                     key=lambda s: s["case"][0])
    if not ordered:
        return {name: [] for name in shards[0]}
    names = list(ordered[0])
    merged: ShardTable = {name: [] for name in names}
    last_case = -1
    for shard in ordered:
        if list(shard) != names:
            raise ConfigurationError(
                f"shard columns differ: {list(shard)} != {names}")
        if shard["case"][0] <= last_case:
            raise ConfigurationError(
                f"shard case ranges overlap at case {shard['case'][0]}")
        last_case = shard["case"][-1]
        for name in names:
            merged[name].extend(shard[name])
    return merged


def build_table(spec: StudySpec, raw: ShardTable) -> StudyTable:
    """Turn merged raw engine metrics into the final :class:`StudyTable`.

    Derived metrics are evaluated here (per case, over the raw metric
    environment) and the optional ``metrics`` subset filter is applied — both
    *after* the store layer, so editing a formula or the filter reuses cached
    engine results.  A formula that is undefined for a case (division by
    zero, overflow, a math-domain error such as ``log(0)``) yields NaN for
    that cell — the table's infeasible marker — instead of aborting the run.
    Axis columns are decoded from the case indices
    (:meth:`~repro.study.spec.StudySpec.axis_columns`), so the cost is
    O(rows), not O(grid).

    Args:
        spec: The study the raw rows belong to.
        raw: Merged raw columns (``case`` + every engine metric).

    Returns:
        The final table with axis columns attached.
    """
    from repro.study.engines import STUDY_ENGINES

    adapter = STUDY_ENGINES[spec.engine]
    case_indices = [int(c) for c in raw["case"]]
    kept = spec.metrics or adapter.metrics
    derived = [(name, compile_expression(expression))
               for name, expression in spec.derived]

    columns: dict = {"case": case_indices}
    columns.update(spec.axis_columns(case_indices))
    for metric in kept:
        # A fully empty merge (e.g. max_shards=0) carries no metric columns.
        columns[metric] = list(raw[metric]) if case_indices else []
    if derived:
        env_rows = [{m: raw[m][r] for m in adapter.metrics}
                    for r in range(len(case_indices))]
        for name, evaluate in derived:
            columns[name] = [_derived_cell(evaluate, env) for env in env_rows]
    return StudyTable(
        name=spec.name,
        engine=spec.engine,
        axis_names=spec.axis_names,
        metric_names=tuple(kept) + tuple(name for name, _ in spec.derived),
        columns=columns,
    )


def _derived_cell(evaluate, env: dict):
    """One derived-metric value; NaN where the formula is undefined."""
    try:
        return evaluate(env)
    except ConfigurationError:
        raise
    except (ZeroDivisionError, OverflowError, ValueError):
        return math.nan


# -- disk layer ---------------------------------------------------------------


@dataclass(frozen=True)
class RunRecord:
    """What a spec's run record says: its latest header and stored shards.

    Attributes
    ----------
    header:
        The latest header line (``study``, ``compute_hash``, ``version``),
        or ``None`` when no run with pending work started.
    shards:
        ``{(start, stop): (bundle key, first row, stop row)}``: for each
        stored case range, the last bundle line that wrote it.
    """

    header: dict | None = None
    shards: dict = field(default_factory=dict)

    @classmethod
    def from_lines(cls, lines: list) -> "RunRecord":
        """Fold parsed record lines; a malformed line is skipped whole."""
        header, shards = None, {}
        for line in lines:
            try:
                if "bundle" in line:
                    key = line["bundle"]
                    if not isinstance(key, str):
                        continue
                    shards.update({(int(start), int(stop)): (key, int(lo),
                                                             int(hi))
                                   for start, stop, lo, hi in line["shards"]})
                elif "compute_hash" in line:
                    header = line
            except (KeyError, TypeError, ValueError):
                continue
        return cls(header, shards)

    def stored_ranges(self) -> list[tuple[int, int]]:
        """The recorded case ranges, sorted."""
        return sorted(self.shards)


class StudyStore(ArrayCache):
    """LRU + disk memo of raw shard tables, one bundle per write batch.

    :meth:`put_bundle` stores the shards one attempt completed together as
    one ``<checksum>.bundle`` (the columns of the members, concatenated),
    then appends a line to the spec's run record mapping each member's
    case range to the bundle and its row slice.  Numeric columns persist
    as float/int arrays, string columns as unicode arrays.  The round trip
    is exact (float64 bits, int, str), so a resumed run's merged table is
    bit-identical to an uninterrupted one.  A bundle is named after its
    content checksum, so one name never holds two different contents.
    """

    def _pack(self, value: ShardTable) -> dict[str, np.ndarray]:
        arrays = {"__columns__": np.array(list(value), dtype=np.str_)}
        for i, (name, column) in enumerate(value.items()):
            arr = np.asarray(column)
            if arr.dtype == object or arr.dtype.kind not in "iufUSb":
                arr = np.array([str(v) for v in column], dtype=np.str_)
            arrays[f"col{i}"] = arr
        return arrays

    def _unpack(self, arrays: dict[str, np.ndarray]) -> ShardTable:
        names = [str(n) for n in arrays["__columns__"].tolist()]
        return {name: arrays[f"col{i}"].tolist()
                for i, name in enumerate(names)}

    def _read_bundle(self, key: str) -> tuple[dict, str] | None:
        verified = super()._read_bundle(key)
        if verified is not None and verified[1] != key:
            raise ValueError(f"bundle {key} holds other content")
        return verified

    # -- the run record ------------------------------------------------------

    def _record_path(self, spec: StudySpec) -> Path:
        return self.cache_dir / f"{spec.compute_hash[:40]}-run.jsonl"

    def run_record(self, spec: StudySpec) -> RunRecord:
        """Read ``spec``'s run record (one open; absent means empty).

        A torn last line, the trace of a killed writer, is skipped, so the
        bundle it would have recorded counts as not stored; so is a line
        damaged on disk.  A store without a disk layer, and a record that
        cannot be read, store nothing.
        """
        if self.cache_dir is None:
            return RunRecord()
        try:
            lines, _ = scan_journal(self._record_path(spec))
        except OSError:
            return RunRecord()
        return RunRecord.from_lines(lines)

    def _append_record(self, spec: StudySpec, line: dict) -> None:
        """Append one line to ``spec``'s run record with one ``write``.

        A record that ends in a torn line gets a line break first, so the
        new line stays whole.  The check and the write hold an exclusive
        ``flock``: another writer's line that straddles a page boundary
        shows its first page in the file size before its second, and would
        read as torn.  A failing write is counted in
        :attr:`~repro.scenario.cache.ArrayCache.disk_errors`: the record
        must never take down the run it describes.  A store without a
        disk layer records nothing.
        """
        if self.cache_dir is None:
            return
        data = (json.dumps(line) + "\n").encode()
        try:
            fd = os.open(self._record_path(spec),
                         os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
                size = os.fstat(fd).st_size
                if size and os.pread(fd, 1, size - 1) != b"\n":
                    data = b"\n" + data
                os.write(fd, data)
            finally:
                os.close(fd)
        except OSError:
            self.disk_errors += 1

    def begin_run(self, spec: StudySpec) -> None:
        """Record that a run of ``spec`` starts writing: a header line
        ``{study, compute_hash, version}`` naming what the record is of."""
        from repro import __version__

        self._append_record(spec, {
            "study": spec.name, "compute_hash": spec.compute_hash,
            "version": __version__})

    # -- shards --------------------------------------------------------------

    def put_bundle(self, spec: StudySpec,
                   members: list[tuple[int, int, ShardTable]]) -> str | None:
        """Persist shards completed together as one bundle, then record it.

        Args:
            spec: The study the shards belong to.
            members: ``(start, stop, shard table)`` per shard, all with the
                same columns.

        Returns:
            The bundle key, or ``None`` when the store has no disk layer or
            the disk refused the bundle (its shards then stay unrecorded
            and recompute next run).
        """
        if self.cache_dir is None:
            return None
        names = list(members[0][2])
        table: ShardTable = {name: [] for name in names}
        slices = []
        for start, stop, shard in members:
            if list(shard) != names:
                raise ConfigurationError(
                    f"shard columns differ: {list(shard)} != {names}")
            lo = len(table["case"])
            for name in names:
                table[name].extend(shard[name])
            slices.append([start, stop, lo, len(table["case"])])
        data, key = self.encode(table)
        with self._lock:
            self._remember(key, table)
        if not self._write_bundle(key, data):
            return None
        self._append_record(spec, {"bundle": key, "shards": slices})
        return key

    def _sliced(self, record: RunRecord, ranges, load):
        """``((start, stop), bundle key, first row, shard)`` for each of
        ``ranges`` the record maps to a bundle ``load`` returns, reading
        each bundle once; a slice that does not hold its cases is left
        out."""
        by_bundle: dict[str, list] = {}
        for case_range in ranges:
            if case_range in record.shards:
                key, lo, hi = record.shards[case_range]
                by_bundle.setdefault(key, []).append((case_range, lo, hi))
        for key, members in by_bundle.items():
            table = load(key)
            if table is None:
                continue
            for (start, stop), lo, hi in members:
                shard = {name: column[lo:hi] for name, column in table.items()}
                if shard["case"] == list(range(start, stop)):
                    yield (start, stop), key, lo, shard

    def load_shards(self, record: RunRecord, ranges
                    ) -> dict[tuple[int, int], ShardTable]:
        """The shard tables of ``ranges`` that ``record`` maps to a bundle.

        Each bundle is read once.  A bundle that is missing, or damaged
        (quarantined, see :meth:`~repro.scenario.cache.ArrayCache.get_by_hash`),
        leaves out exactly its member shards, which then recompute.
        """
        return {case_range: shard for case_range, _, _, shard
                in self._sliced(record, ranges, self.get_by_hash)}

    def verified_shards(self, spec: StudySpec, ranges
                        ) -> dict[tuple[int, int], tuple[ShardTable, str, int]]:
        """``{(start, stop): (shard, bundle checksum, first row)}`` for the
        recorded shards of ``ranges`` whose bundle verifies on disk.

        The checksum is the one the bundle header carries, which is also
        the bundle's name; shard manifests attest it.  A damaged bundle is
        left in place (see
        :meth:`~repro.scenario.cache.ArrayCache.load_verified`).
        """
        def load(key):
            loaded = self.load_verified(key)
            return None if loaded is None else loaded[0]

        return {case_range: (shard, key, lo) for case_range, key, lo, shard
                in self._sliced(self.run_record(spec), ranges, load)}

    def get_shard(self, spec: StudySpec, start: int, stop: int) -> ShardTable | None:
        """Cached shard table, or ``None`` when the range is not stored."""
        return self.load_shards(self.run_record(spec),
                                [(start, stop)]).get((start, stop))

    def put_shard(self, spec: StudySpec, start: int, stop: int,
                  value: ShardTable) -> None:
        """Persist one completed shard's raw table as its own bundle."""
        self.put_bundle(spec, [(start, stop, value)])

    def shard_checksum(self, spec: StudySpec, start: int, stop: int) -> str | None:
        """Verified checksum of the bundle holding the ``[start, stop)``
        shard, or ``None`` when it is not stored or fails verification
        (see :meth:`verified_shards`)."""
        found = self.verified_shards(spec, [(start, stop)]).get((start, stop))
        return None if found is None else found[1]
