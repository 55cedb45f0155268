"""Declarative study layer: YAML/TOML sweeps over the batch engines.

A *study* is a sweep-as-data document — axes over any scenario / solar / MC /
sim parameter, an engine selection, seeds and derived-metric formulas — that
compiles to the existing batch engines and runs through a sharded,
resumable, process-parallel **supervised** runner (per-shard retries with
deterministic backoff, wall-clock timeouts, automatic pool rebuilds,
fault quarantine and a JSONL run journal) into one tidy results table.

::

    from repro.study import load_study, run_study

    spec = load_study("studies/sim_grid.yaml")
    report = run_study(spec, jobs=4)
    report.table.write_csv("sim_grid.csv")        # tidy long format

See ``docs/studies.md`` for the document schema and ``studies/*.yaml`` for
the shipped sweeps (day simulation, shadowing robustness, off-grid sizing
and the national network), run from the command line with
``repro study run``.
"""

from repro._lazy import lazy_exports

__all__ = [
    "STUDY_ENGINES",
    "EngineAdapter",
    "run_cases",
    "MergeReport",
    "RefreshReport",
    "SliceRunReport",
    "case_fingerprint",
    "merge_manifests",
    "refresh_study",
    "run_shard_slice",
    "slice_shards",
    "ShardEntry",
    "ShardManifest",
    "build_manifest",
    "load_manifest",
    "write_manifest",
    "compile_expression",
    "RunJournal",
    "read_journal",
    "scan_journal",
    "StudyStore",
    "StudyTable",
    "build_table",
    "merge_shards",
    "FailedShard",
    "StudyRunReport",
    "retry_delay",
    "run_study",
    "shard_ranges",
    "StudySpec",
    "load_study",
    "parse_study",
    "study_from_mapping",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "distributed": (
        "MergeReport", "RefreshReport", "SliceRunReport", "case_fingerprint",
        "merge_manifests", "refresh_study", "run_shard_slice", "slice_shards",
    ),
    "engines": ("STUDY_ENGINES", "EngineAdapter", "run_cases"),
    "expressions": ("compile_expression",),
    "journal": ("RunJournal", "read_journal", "scan_journal"),
    "manifest": (
        "ShardEntry", "ShardManifest", "build_manifest", "load_manifest",
        "write_manifest",
    ),
    "results": ("StudyStore", "StudyTable", "build_table", "merge_shards"),
    "runner": (
        "FailedShard", "StudyRunReport", "retry_delay", "run_study",
        "shard_ranges",
    ),
    "spec": ("StudySpec", "load_study", "parse_study", "study_from_mapping"),
})
