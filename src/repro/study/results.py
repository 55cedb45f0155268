"""Unified study results: tidy tables, CSV/JSON writers, shard store.

A study run produces one :class:`StudyTable` — a column-oriented table with
one row per case, carrying the case index, every axis value and every metric
(engine metrics, optionally filtered, plus derived metrics).  The table
writes as

* **long** (tidy) CSV — one row per ``(case, metric)`` with per-axis columns,
  the layout downstream dataframe tooling melts/pivots for free;
* **wide** CSV — one row per case, one column per metric;
* JSON — a provenance document (spec echo + wide records).

:class:`StudyStore` is the disk layer of the sharded runner: each completed
shard's raw engine metrics persist as one checksummed ``.bundle`` file (the
same atomic write-then-rename :class:`~repro.scenario.cache.ArrayCache`
machinery as the profile and weather caches), keyed by the spec's
:attr:`~repro.study.spec.StudySpec.compute_hash` and the shard's case range —
so an interrupted run resumes from its completed shards, and the merged table
is bit-identical to an uninterrupted run.  Corrupt or truncated bundles (a
killed pre-hardening writer, bit rot, injected faults) are detected by the
checksum, quarantined into a sidecar directory and recomputed instead of
poisoning the resume.  A store written by an older release holds ``.npz``
files, which are not read: its shards recompute.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError
from repro.reporting.series import write_csv
from repro.reporting.tables import format_table
from repro.scenario.cache import ArrayCache
from repro.study.expressions import compile_expression
from repro.study.spec import StudySpec

__all__ = ["ShardTable", "StudyTable", "StudyStore", "build_table",
           "merge_shards"]

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


class StudyStore(ArrayCache):
    """LRU + disk memo of raw shard tables, keyed by (spec, case range).

    Values are :data:`ShardTable` column mappings; numeric columns persist as
    float/int arrays, string columns as unicode arrays.  The round trip is
    exact (float64 bits, int, str), so a resumed run's merged table is
    bit-identical to an uninterrupted one.
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

    @staticmethod
    def shard_key(spec: StudySpec, start: int, stop: int) -> str:
        """Store key of the ``[start, stop)`` case range of ``spec``."""
        return f"{spec.compute_hash[:40]}-{start:06d}-{stop:06d}"

    def get_shard(self, spec: StudySpec, start: int, stop: int) -> ShardTable | None:
        """Cached shard table, or ``None`` when the range was never stored."""
        return self.get_by_hash(self.shard_key(spec, start, stop))

    def put_shard(self, spec: StudySpec, start: int, stop: int,
                  value: ShardTable) -> None:
        """Persist one completed shard's raw table."""
        self.put_by_hash(self.shard_key(spec, start, stop), value)

    def shard_checksum(self, spec: StudySpec, start: int, stop: int) -> str | None:
        """Verified bundle checksum of the ``[start, stop)`` shard, if stored.

        The digest is the same checksum every bundle carries in its
        header; shard manifests record it per case range so a merge can
        detect tampering without trusting the worker.  Returns ``None``
        when the shard is absent, the store has no disk layer, or the file
        fails verification (see :meth:`~repro.scenario.cache.ArrayCache.stored_checksum`).
        """
        return self.stored_checksum(self.shard_key(spec, start, stop))

    def verified_shard(self, spec: StudySpec, start: int, stop: int
                       ) -> tuple[ShardTable, str] | None:
        """The ``[start, stop)`` shard table with its verified checksum.

        One disk read for what :meth:`shard_checksum` plus
        :meth:`get_shard` would read twice; a damaged bundle returns
        ``None`` and is left in place (see
        :meth:`~repro.scenario.cache.ArrayCache.load_verified`).
        """
        return self.load_verified(self.shard_key(spec, start, stop))

    def _metadata_path(self, spec: StudySpec) -> Path | None:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{spec.compute_hash[:40]}-meta.json"

    def run_metadata(self, spec: StudySpec) -> dict | None:
        """The run metadata recorded for ``spec``, or ``None``.

        The runner persists a small JSON sidecar per spec recording which
        study and ``repro`` version wrote its shards into this store.

        Args:
            spec: The study whose metadata to read.

        Returns:
            The recorded mapping, or ``None`` when the store has no disk
            layer, nothing was recorded, or the sidecar is unreadable.
        """
        path = self._metadata_path(spec)
        if path is None or not path.exists():
            return None
        try:
            document = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        return document if isinstance(document, dict) else None

    def put_run_metadata(self, spec: StudySpec) -> None:
        """Record which study and ``repro`` version wrote ``spec``'s rows.

        The sidecar holds ``{study, compute_hash, version}``.  It
        uses the same write-then-rename discipline as the array bundles;
        an unwritable directory degrades silently (counted in
        :attr:`~repro.scenario.cache.ArrayCache.disk_errors`) — metadata
        must never take down the run it describes.
        """
        path = self._metadata_path(spec)
        if path is None:
            return
        from repro import __version__

        metadata = {"study": spec.name, "compute_hash": spec.compute_hash,
                    "version": __version__}
        tmp_path = path.with_name(
            f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            tmp_path.write_text(json.dumps(metadata, indent=2) + "\n")
            os.replace(tmp_path, path)
        except OSError:
            self.disk_errors += 1
            try:
                tmp_path.unlink(missing_ok=True)
            except OSError:
                pass

    def stored_ranges(self, spec: StudySpec) -> list[tuple[int, int]]:
        """Case ranges of ``spec`` present in the disk layer, sorted.

        Used by the runner to detect a resume whose shard layout differs
        from the run that populated the store (the keys embed the ranges,
        so a different layout would silently recompute everything).

        Args:
            spec: The study whose shards to look for.

        Returns:
            Sorted ``(start, stop)`` ranges found on disk; empty when the
            store has no disk layer or holds nothing for this spec.
        """
        if self.cache_dir is None:
            return []
        prefix = spec.compute_hash[:40]
        ranges = []
        for path in self.cache_dir.glob(self.bundle_path(f"{prefix}-*").name):
            parts = path.stem.rsplit("-", 2)
            try:
                ranges.append((int(parts[1]), int(parts[2])))
            except (IndexError, ValueError):  # pragma: no cover - foreign file
                continue
        return sorted(ranges)
