"""Command-line interface: ``repro <experiment>`` or ``python -m repro ...``.

Examples::

    repro list                  # available experiments
    repro fig4                  # print the Fig. 4 table
    repro table4 --csv out/     # also dump the CSV series
    repro all --csv out/        # run everything
    repro maxisd --jobs 4       # shard sweep evaluation across threads
    repro all --cache-dir .cache  # persist Eq. (2) profiles across runs

    repro study list                                  # shipped study files
    repro study run studies/sim_grid.yaml --jobs 4    # declarative sweep
    repro study resume studies/sim_grid.yaml --store .study  # pick up shards

    repro docs check            # check the docs' nav, links and anchors
    repro docs api --check      # verify the generated API reference is fresh

    repro serve --store .service --port 8765   # scenario-planning HTTP API

    repro network list                             # named corridor graphs
    repro network optimize --graph national --energy-budget 125
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

__all__ = ["main", "build_parser", "study_main", "docs_main", "serve_main",
           "network_main", "SUBCOMMANDS"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction of 'Increasing Cellular Network Energy "
                     "Efficiency for Railway Corridors' (DATE 2022)"),
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see 'repro list'), 'all', or 'list'; "
             "'repro study ...' runs declarative YAML/TOML studies and "
             "'repro docs ...' checks the documentation",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also write each experiment's data series as CSV into DIR",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the formatted tables (useful with --csv)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        default=None,
        help="shard batched scenario evaluation across N threads",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persist evaluated SNR profiles (and synthesized weather years, "
             "under DIR/weather) to DIR, reused across runs",
    )
    parser.add_argument(
        "--trials",
        type=int,
        metavar="T",
        default=None,
        help="Monte-Carlo trial count of the shadowing analyses "
             "(ext-robust, abl-noise)",
    )
    parser.add_argument(
        "--sigmas",
        metavar="DB[,DB...]",
        default=None,
        help="shadowing sigmas [dB], comma separated (e.g. 2,4,6): enables "
             "the robust max-ISD overlay of abl-noise",
    )
    return parser


def _parse_sigmas(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise SystemExit(f"--sigmas expects comma-separated numbers, got {text!r}")
    # sigma 0 is the valid no-shadowing anchor.
    if not values or any(v < 0 for v in values):
        raise SystemExit(f"--sigmas expects non-negative values, got {text!r}")
    return values


def _print_result(experiment_id: str, result, quiet: bool) -> None:
    if quiet:
        return
    if hasattr(result, "table"):
        print(result.table())
    else:
        print(f"[{experiment_id}] {result!r}")
    print()


def _engine_kwargs(args: argparse.Namespace) -> dict:
    """Shared engine options forwarded to every experiment runner."""
    from repro.scenario.cache import ProfileCache
    from repro.solar.batch import WeatherCache

    kwargs: dict = {}
    if args.jobs is not None:
        if args.jobs < 1:
            raise SystemExit("--jobs must be >= 1")
        kwargs["jobs"] = args.jobs
    if args.cache_dir is not None:
        kwargs["cache"] = ProfileCache(maxsize=1024, cache_dir=args.cache_dir)
        kwargs["weather_cache"] = WeatherCache(
            maxsize=256, cache_dir=Path(args.cache_dir) / "weather")
    if args.trials is not None:
        if args.trials < 1:
            raise SystemExit("--trials must be >= 1")
        kwargs["trials"] = args.trials
    if args.sigmas is not None:
        kwargs["sigmas"] = _parse_sigmas(args.sigmas)
    return kwargs


# -- declarative studies ------------------------------------------------------


def build_study_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro study",
        description="Run declarative YAML/TOML studies through the sharded "
                    "study runner (see docs/studies.md for the schema)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser(
        "run", help="run a study file end to end")
    resume_parser = sub.add_parser(
        "resume", help="continue a partially run study from its store")
    shard_parser = sub.add_parser(
        "shard", help="run one worker's slice of a study and sign a shard "
                      "manifest (distributed execution; see "
                      "docs/distributed.md)")
    for p in (run_parser, resume_parser, shard_parser):
        p.add_argument("study_file", help="path to the .yaml/.yml/.toml study")
        p.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes (default: run inline)")
        p.add_argument("--shards", type=int, default=None, metavar="K",
                       help="contiguous case chunks (default: min(cases, 16); "
                            "a resume must reuse the layout that filled the "
                            "store)")
        p.add_argument("--store", metavar="DIR", default=None,
                       help="persist completed shards to DIR and reuse them "
                            "on later runs (resume); a run.jsonl event "
                            "journal is written beside the shards")
        p.add_argument("--retries", type=int, default=0, metavar="N",
                       help="re-attempt a failing shard up to N times with "
                            "deterministic capped exponential backoff "
                            "(default: fail fast)")
        p.add_argument("--shard-timeout", type=float, default=None,
                       metavar="S",
                       help="wall-clock budget per shard attempt [s]; a hung "
                            "worker is terminated and the shard rescheduled "
                            "(needs --jobs >= 2)")
        p.add_argument("--keep-going", action="store_true",
                       help="quarantine shards that exhaust their retries "
                            "into the report (exit 4) instead of aborting")
        p.add_argument("--fault-plan", metavar="FILE", default=None,
                       help="JSON fault-injection plan executed by the "
                            "workers on themselves (chaos testing; see "
                            "repro.faults)")
        p.add_argument("--max-shards", type=int, default=None, metavar="K",
                       help="stop after computing K new shards (partial run; "
                            "resume later with the same --store)")
        p.add_argument("--csv", metavar="FILE", default=None,
                       help="write the merged results table as CSV")
        p.add_argument("--layout", choices=("long", "wide"), default="long",
                       help="CSV layout: tidy long format (default) or one "
                            "row per case")
        p.add_argument("--json", metavar="FILE", default=None,
                       help="write the merged results as a JSON document")
        p.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="persist Eq. (2) profiles / weather years under "
                            "DIR, shared by worker processes")
        p.add_argument("--quiet", action="store_true",
                       help="suppress the results preview table")
    for p in (run_parser, resume_parser):
        p.add_argument("--manifest", metavar="FILE", default=None,
                       help="also sign a 1-of-1 shard manifest over the "
                            "completed shards (needs --store); the file a "
                            "later 'repro study merge' validates")
    shard_parser.add_argument("--index", type=int, required=True, metavar="K",
                              help="this worker's 0-based position in the "
                                   "split")
    shard_parser.add_argument("--of", type=int, required=True, metavar="N",
                              help="total workers in the split")
    shard_parser.add_argument("--manifest", metavar="FILE", default=None,
                              help="manifest output file (default: a "
                                   "hash-derived name inside --store)")
    resume_parser.set_defaults(resume=True)
    run_parser.set_defaults(resume=False)
    shard_parser.set_defaults(resume=False)

    merge_parser = sub.add_parser(
        "merge", help="validate worker manifests and reassemble the "
                      "single-machine results table")
    merge_parser.add_argument("study_file",
                              help="path to the .yaml/.yml/.toml study the "
                                   "manifests must attest")
    merge_parser.add_argument("manifests", nargs="+", metavar="MANIFEST",
                              help="worker manifest files (shard bundles "
                                   "are read from each manifest's "
                                   "directory)")
    merge_parser.add_argument("--out-store", metavar="DIR", default=None,
                              help="copy the verified shard bundles into "
                                   "DIR (a normal resumable store) and "
                                   "write the merged provenance journal "
                                   "there")
    merge_parser.add_argument("--journal", metavar="FILE", default=None,
                              help="merged provenance journal (default: "
                                   "merge.jsonl inside --out-store)")
    merge_parser.add_argument("--crn-sample", type=int, default=3,
                              metavar="N",
                              help="cases recomputed inline for the CRN "
                                   "bit-identity spot-check "
                                   "(default: %(default)s)")
    merge_parser.add_argument("--cache-dir", metavar="DIR", default=None,
                              help="profile/weather cache for the CRN "
                                   "spot-check recomputation")
    merge_parser.add_argument("--csv", metavar="FILE", default=None,
                              help="write the merged results table as CSV")
    merge_parser.add_argument("--layout", choices=("long", "wide"),
                              default="long",
                              help="CSV layout (default: %(default)s)")
    merge_parser.add_argument("--json", metavar="FILE", default=None,
                              help="write the merged results as a JSON "
                                   "document")
    merge_parser.add_argument("--quiet", action="store_true",
                              help="suppress the results preview table")

    refresh_parser = sub.add_parser(
        "refresh", help="re-evaluate an updated study, recomputing only "
                        "the cases whose content hash changed")
    refresh_parser.add_argument("study_file",
                                help="path to the *updated* study document")
    refresh_parser.add_argument("--previous", metavar="FILE", required=True,
                                help="the superseded study document whose "
                                     "results already live in --store")
    refresh_parser.add_argument("--store", metavar="DIR", required=True,
                                help="store holding the previous run's "
                                     "shards; receives the updated spec's")
    refresh_parser.add_argument("--shards", type=int, default=None,
                                metavar="K",
                                help="shard count of the updated layout "
                                     "(default: min(cases, 16))")
    refresh_parser.add_argument("--cache-dir", metavar="DIR", default=None,
                                help="profile/weather cache for the "
                                     "recomputed cases")
    refresh_parser.add_argument("--csv", metavar="FILE", default=None,
                                help="write the refreshed table as CSV")
    refresh_parser.add_argument("--layout", choices=("long", "wide"),
                                default="long",
                                help="CSV layout (default: %(default)s)")
    refresh_parser.add_argument("--json", metavar="FILE", default=None,
                                help="write the refreshed table as JSON")
    refresh_parser.add_argument("--quiet", action="store_true",
                                help="suppress the results preview table")

    list_parser = sub.add_parser("list", help="list study files")
    list_parser.add_argument("directory", nargs="?", default="studies",
                             help="directory to scan (default: studies/)")
    return parser


def study_main(argv: list[str]) -> int:
    """Entry point of the ``repro study`` subcommands.

    Exit codes (``run`` / ``resume`` / ``shard``): 0 complete, 1 error,
    2 unloadable study, 3 partial run, 4 completed with quarantined
    shards.  ``merge``: 0 merged, 4 rejected shard set (validation or
    manifest failure), 2 unloadable study, 1 other error.  ``refresh``:
    0 refreshed, 1 error, 2 unloadable study, 3 interrupted (partial).
    """
    from repro.errors import ReproError
    from repro.study import StudyStore, load_study, run_study

    args = build_study_parser().parse_args(argv)

    if args.command == "merge":
        return _study_merge(args)
    if args.command == "refresh":
        return _study_refresh(args)

    if args.command == "list":
        directory = Path(args.directory)
        files = sorted(list(directory.glob("*.yaml"))
                       + list(directory.glob("*.yml"))
                       + list(directory.glob("*.toml")))
        if not files:
            print(f"no study files under {directory}/", file=sys.stderr)
            return 1
        for path in files:
            try:
                spec = load_study(path)
            except ReproError as exc:
                print(f"{path}  [invalid: {exc}]")
                continue
            print(f"{path}  {spec.engine} engine, {spec.case_count} cases"
                  f"{' — ' + spec.description if spec.description else ''}")
        return 0

    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    if args.resume and args.store is None:
        raise SystemExit("repro study resume needs --store DIR (the store "
                         "the interrupted run was writing to)")
    if args.command == "shard" and args.store is None:
        raise SystemExit("repro study shard needs --store DIR (the worker's "
                         "own shard/manifest directory)")
    if args.manifest is not None and args.store is None:
        raise SystemExit("--manifest needs --store (it attests on-disk "
                         "shard bundles)")
    if args.max_shards is not None and (args.command == "shard"
                                        or args.manifest is not None):
        raise SystemExit("--max-shards cannot be combined with shard "
                         "slices or --manifest (a capped run attests "
                         "nothing useful)")
    try:
        spec = load_study(args.study_file)
    except (ReproError, OSError) as exc:
        print(f"cannot load study {args.study_file!r}: {exc}", file=sys.stderr)
        return 2

    store = None
    if args.store is not None:
        store = StudyStore(maxsize=1024, cache_dir=args.store)

    def progress(done: int, total: int, label: str) -> None:
        if not args.quiet:
            print(f"[{done}/{total}] {label}", file=sys.stderr)

    context = {}
    if args.cache_dir is not None:
        context["cache_dir"] = args.cache_dir
    if args.retries < 0:
        raise SystemExit("--retries must be >= 0")
    if args.fault_plan is not None:
        from repro.faults import load_fault_plan
        try:
            plan = load_fault_plan(args.fault_plan)
        except ReproError as exc:
            print(f"study failed: {exc}", file=sys.stderr)
            return 1
        context["fault_plan"] = plan.to_context()
    slice_result = None
    try:
        if args.command == "shard" or args.manifest is not None:
            from repro.study import run_shard_slice

            index = args.index if args.command == "shard" else 0
            of = args.of if args.command == "shard" else 1
            slice_result = run_shard_slice(
                spec, index, of, store, jobs=args.jobs, shards=args.shards,
                context=context, retries=args.retries,
                shard_timeout=args.shard_timeout,
                keep_going=args.keep_going, progress=progress,
                manifest_path=args.manifest)
            report = slice_result.report
        else:
            report = run_study(spec, jobs=args.jobs, shards=args.shards,
                               store=store, progress=progress,
                               max_shards=args.max_shards, context=context,
                               retries=args.retries,
                               shard_timeout=args.shard_timeout,
                               keep_going=args.keep_going)
    except ReproError as exc:
        print(f"study failed: {exc}", file=sys.stderr)
        return 1

    if slice_result is not None:
        print(slice_result.summary(), file=sys.stderr)
        if report is None:  # more workers than shards: an empty slice
            return 0
    if not args.quiet:
        print(report.table.table())
        print(report.summary(), file=sys.stderr)
    for shard in report.failed_shards:
        print(f"failed shard {shard.index} (cases [{shard.start}:"
              f"{shard.stop})): {shard.kind} after {shard.attempts} "
              f"attempt(s) — {shard.error}", file=sys.stderr)
    if args.csv is not None:
        report.table.write_csv(args.csv, layout=args.layout)
    if args.json is not None:
        report.table.write_json(args.json)
    if report.failed_shards:
        return 4  # completed with quarantined shards (--keep-going)
    return 3 if report.partial else 0


def _study_merge(args: argparse.Namespace) -> int:
    """``repro study merge``: validate manifests, emit the merged table."""
    from repro.errors import ManifestError, MergeValidationError, ReproError
    from repro.study import StudyStore, load_study, merge_manifests

    try:
        spec = load_study(args.study_file)
    except (ReproError, OSError) as exc:
        print(f"cannot load study {args.study_file!r}: {exc}",
              file=sys.stderr)
        return 2
    out_store = None
    if args.out_store is not None:
        out_store = StudyStore(maxsize=1024, cache_dir=args.out_store)
    context = {}
    if args.cache_dir is not None:
        context["cache_dir"] = args.cache_dir
    try:
        merged = merge_manifests(spec, args.manifests, out_store=out_store,
                                 journal=args.journal,
                                 crn_sample=args.crn_sample, context=context)
    except (ManifestError, MergeValidationError) as exc:
        kind = getattr(exc, "kind", "manifest")
        print(f"merge rejected [{kind}]: {exc}", file=sys.stderr)
        return 4
    except ReproError as exc:
        print(f"merge failed: {exc}", file=sys.stderr)
        return 1

    if not args.quiet:
        print(merged.table.table())
        print(merged.summary(), file=sys.stderr)
    if args.csv is not None:
        merged.table.write_csv(args.csv, layout=args.layout)
    if args.json is not None:
        merged.table.write_json(args.json,
                                metadata={"workers": len(merged.manifests)})
    return 0


def _study_refresh(args: argparse.Namespace) -> int:
    """``repro study refresh``: re-run only hash-changed cases."""
    from repro.errors import ReproError
    from repro.study import StudyStore, load_study, refresh_study

    specs = []
    for label, path in (("study", args.study_file),
                        ("previous study", args.previous)):
        try:
            specs.append(load_study(path))
        except (ReproError, OSError) as exc:
            print(f"cannot load {label} {path!r}: {exc}", file=sys.stderr)
            return 2
    spec, previous = specs
    store = StudyStore(maxsize=1024, cache_dir=args.store)
    context = {}
    if args.cache_dir is not None:
        context["cache_dir"] = args.cache_dir

    def progress(done: int, total: int, label: str) -> None:
        if not args.quiet:
            print(f"[{done}/{total}] {label}", file=sys.stderr)

    try:
        refreshed = refresh_study(spec, previous, store, context=context,
                                  shards=args.shards, progress=progress)
    except ReproError as exc:
        print(f"refresh failed: {exc}", file=sys.stderr)
        return 1

    if not args.quiet:
        print(refreshed.table.table())
        print(refreshed.summary(), file=sys.stderr)
    if args.csv is not None:
        refreshed.table.write_csv(args.csv, layout=args.layout)
    if args.json is not None:
        refreshed.table.write_json(args.json)
    return 3 if refreshed.partial else 0


# -- network optimizer --------------------------------------------------------


def build_network_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro network",
        description=("Optimize technology assignment and sleep policy over "
                     "a corridor graph (see docs/network.md)"),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the named corridor graphs")

    opt = sub.add_parser("optimize",
                         help="assign one technology option per segment "
                              "under global budgets")
    opt.add_argument("--graph", default="national",
                     help="named graph (default: %(default)s; see "
                          "'repro network list')")
    opt.add_argument("--segments", type=int, default=0, metavar="N",
                     help="total segment count (default: the graph's "
                          "named size)")
    opt.add_argument("--demand-scale", type=float, default=1.0, metavar="X",
                     help="multiplier on every corridor's trains/h "
                          "(default: %(default)s)")
    opt.add_argument("--energy-budget", type=float, default=None,
                     metavar="W_PER_KM",
                     help="global energy budget per track km [W/km]; "
                          "<= 0 means unconstrained, as in a network study "
                          "(default: unconstrained)")
    opt.add_argument("--cost-budget", type=float, default=None,
                     metavar="KEUR_PER_KM",
                     help="global cost budget per track km [kEUR/km] over "
                          "the horizon; <= 0 means unconstrained, as in a "
                          "network study (default: unconstrained)")
    opt.add_argument("--technologies",
                     default="conventional,repeater,mobile_relay",
                     metavar="A,B,...",
                     help="candidate technology families, comma separated "
                          "(default: %(default)s)")
    opt.add_argument("--min-sleep-headway", type=float, default=300.0,
                     metavar="S",
                     help="a segment may sleep iff its mean headway is at "
                          "least S seconds (default: %(default)s)")
    opt.add_argument("--resolution", type=float, default=25.0, metavar="M",
                     help="track grid of the radio feasibility check [m] "
                          "(default: %(default)s)")
    opt.add_argument("--horizon-years", type=float, default=10.0, metavar="Y",
                     help="cost horizon [years] (default: %(default)s)")
    opt.add_argument("--jobs", type=int, default=None, metavar="N",
                     help="thread sharding of the batched radio pass")
    opt.add_argument("--limit", type=_non_negative_int, default=20,
                     metavar="N",
                     help="per-segment rows shown in the assignment table "
                          "(default: %(default)s)")
    opt.add_argument("--csv", metavar="FILE", default=None,
                     help="write the full per-segment assignment as CSV")
    opt.add_argument("--quiet", action="store_true",
                     help="suppress the assignment table")
    return parser


def _non_negative_int(text: str) -> int:
    """argparse type for a count ``>= 0`` (a bad value exits 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _global_budget(per_km: float | None, scale: float) -> float | None:
    """Scale a per-km CLI budget to a network total.

    ``None`` or ``<= 0`` means unconstrained, as in the network study engine.
    """
    return None if per_km is None or per_km <= 0 else per_km * scale


def network_main(argv: list[str]) -> int:
    """Entry point of the ``repro network`` subcommands."""
    from repro.errors import ReproError
    from repro.network import NAMED_GRAPHS, TechnologyCatalog, build_graph
    from repro.network.optimize import optimize_network

    args = build_network_parser().parse_args(argv)

    if args.command == "list":
        width = max(len(name) for name in NAMED_GRAPHS)
        for name, default_segments in sorted(NAMED_GRAPHS.items()):
            print(f"{name:<{width}}  {default_segments} segments (default)")
        return 0

    try:
        graph = build_graph(args.graph, n_segments=args.segments,
                            demand_scale=args.demand_scale)
        catalog = TechnologyCatalog.from_names(
            args.technologies, min_sleep_headway_s=args.min_sleep_headway)
        plan = optimize_network(
            graph, catalog,
            energy_budget_w=_global_budget(args.energy_budget,
                                           graph.length_km),
            cost_budget_eur=_global_budget(args.cost_budget,
                                           1e3 * graph.length_km),
            resolution_m=args.resolution,
            horizon_years=args.horizon_years,
            jobs=args.jobs)
    except ReproError as exc:
        print(f"network optimization failed: {exc}", file=sys.stderr)
        return 1

    if not args.quiet:
        print(plan.table(limit=args.limit))
    if args.csv is not None:
        from repro.reporting.series import write_csv

        names, labels, energy, cost, sleeping = zip(*plan.rows())
        write_csv(args.csv, {
            "segment": list(names), "option": list(labels),
            "avg_power_w": list(energy), "cost_eur": list(cost),
            "sleeping": [int(s) for s in sleeping],
        })
    return 0


# -- documentation ------------------------------------------------------------


def docs_main(argv: list[str]) -> int:
    """Entry point of the ``repro docs`` subcommands (check / api)."""
    from repro.docs.cli import docs_command

    return docs_command(argv)


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description=("Run the scenario-planning HTTP service (JSON job API "
                     "over the study runner; see docs/service.md)"),
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: %(default)s)")
    parser.add_argument("--port", type=int, default=8765,
                        help="bind port, 0 picks a free one "
                             "(default: %(default)s)")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="service state directory: study shards, "
                             "jobs.jsonl and per-job run journals; enables "
                             "crash recovery and resume (default: in-memory)")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="concurrent job-executing threads "
                             "(default: %(default)s)")
    parser.add_argument("--queue-depth", type=int, default=8, metavar="N",
                        help="admission bound on waiting jobs; beyond it "
                             "submissions get 429 (default: %(default)s)")
    parser.add_argument("--per-client", type=int, default=4, metavar="N",
                        help="per-client open-job cap (default: %(default)s)")
    parser.add_argument("--max-job-procs", type=int, default=1, metavar="N",
                        help="clamp on worker processes per job "
                             "(default: %(default)s)")
    parser.add_argument("--drain-grace", type=float, default=30.0,
                        metavar="S",
                        help="SIGTERM drain budget [s] before in-flight "
                             "jobs are checkpointed (default: %(default)s)")
    return parser


def serve_main(argv: list[str]) -> int:
    """Entry point of ``repro serve`` (runs until SIGTERM/SIGINT drains)."""
    import signal

    from repro.errors import ReproError
    from repro.service import ScenarioService

    args = build_serve_parser().parse_args(argv)
    try:
        service = ScenarioService(args.host, args.port, args.store,
                                  workers=args.workers,
                                  max_queue=args.queue_depth,
                                  max_per_client=args.per_client,
                                  max_job_procs=args.max_job_procs,
                                  drain_grace_s=args.drain_grace)
        service.start()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 1
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: service.initiate_shutdown())
    store = args.store if args.store is not None else "<in-memory>"
    print(f"serving on http://{args.host}:{service.port}  "
          f"(store: {store}, workers: {args.workers})", file=sys.stderr,
          flush=True)
    service.serve_forever()
    stats = service.queue.stats()
    open_jobs = stats["queued"] + stats["running"]
    return 0 if open_jobs == 0 else 3


#: Leading words routed to a subcommand parser, never to an experiment id
#: (``all`` and ``list`` are reserved by :func:`main` itself).
SUBCOMMANDS = {"study": study_main, "docs": docs_main, "serve": serve_main,
               "network": network_main}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](list(argv[1:]))
    args = build_parser().parse_args(argv)
    from repro.experiments.runner import ALL_EXPERIMENTS, run_all, run_experiment

    if args.experiment == "list":
        width = max(len(k) for k in ALL_EXPERIMENTS)
        for spec in ALL_EXPERIMENTS.values():
            print(f"{spec.experiment_id:<{width}}  {spec.description}")
        return 0

    kwargs = _engine_kwargs(args)

    if args.experiment == "all":
        def progress(index: int, total: int, experiment_id: str) -> None:
            if not args.quiet:
                print(f"[{index}/{total}] {experiment_id}", file=sys.stderr)

        results = run_all(output_dir=args.csv, progress=progress, **kwargs)
        for eid, result in results.items():
            _print_result(eid, result, args.quiet)
        return 0

    if args.experiment not in ALL_EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r}; try 'repro list'",
              file=sys.stderr)
        return 2

    result = run_experiment(args.experiment, output_dir=args.csv, **kwargs)
    _print_result(args.experiment, result, args.quiet)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
