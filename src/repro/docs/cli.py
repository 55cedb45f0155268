"""``repro docs`` subcommands: check the docs, manage the API reference."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import ConfigurationError

__all__ = ["docs_command", "build_docs_parser"]


def _default_config() -> Path:
    """The repository's mkdocs.yml (relative to this source checkout)."""
    return Path(__file__).resolve().parents[3] / "mkdocs.yml"


def build_docs_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro docs",
        description="Check the documentation source (no MkDocs required) "
                    "and keep the generated API reference fresh",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check", help="check nav targets, orphan pages, links, anchors and "
                      "the generated API reference; exit 1 on any problem")
    check.add_argument("--config", metavar="FILE", default=None,
                       help="mkdocs.yml path (default: the repository root)")

    api = sub.add_parser("api", help="regenerate or verify docs/api/*.md")
    api.add_argument("--config", metavar="FILE", default=None,
                     help="mkdocs.yml path (default: the repository root)")
    api.add_argument("--check", action="store_true",
                     help="verify the committed pages match the live "
                          "docstrings instead of rewriting them")
    return parser


def docs_command(argv: list[str]) -> int:
    """Entry point of ``repro docs ...``; returns a process exit code."""
    from repro.docs import apigen, site

    args = build_docs_parser().parse_args(argv)
    try:
        config = site.load_config(Path(args.config) if args.config
                                  else _default_config())
    except ConfigurationError as exc:
        print(exc, file=sys.stderr)
        return 1

    if args.command == "api":
        if args.check:
            problems = apigen.check(config.docs_dir)
            for problem in problems:
                print(problem, file=sys.stderr)
            if problems:
                return 1
            print(f"API reference in sync ({len(apigen.API_PAGES)} pages)")
            return 0
        written = apigen.generate(config.docs_dir)
        for path in written:
            print(f"wrote {path}")
        return 0

    report = site.check_site(config)
    problems = report.problems + apigen.check(config.docs_dir)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"docs: {len(config.pages)} pages; {report.internal_links} "
          f"internal links checked, {report.external_links} external not "
          f"fetched" + (f"; {len(problems)} problems" if problems else ""))
    return 1 if problems else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(docs_command(sys.argv[1:]))
