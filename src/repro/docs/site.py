"""Strict checks of the documentation source tree.

MkDocs renders the site (the CI docs job runs ``mkdocs build --strict``).
This module checks the same ``mkdocs.yml`` + ``docs/`` tree with PyYAML and
the stdlib only, so the checks run offline and inside the test suite:

* every nav entry must point at an existing page, and no page is listed
  twice;
* every Markdown file under ``docs/`` must be reachable from the nav
  (orphans fail the check);
* every relative link must resolve to a page in the nav, and every anchor
  (``page.md#section``) must match a heading slug of the target page;
* external ``http(s)``/``mailto`` links are counted but never fetched (no
  network).

The freshness of the generated API reference is a separate check,
:func:`repro.docs.apigen.check`; ``repro docs check`` runs both.
"""

from __future__ import annotations

import posixpath
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigurationError

__all__ = ["SiteConfig", "SiteReport", "load_config", "check_site", "scan",
           "slugify"]


@dataclass(frozen=True)
class SiteConfig:
    """The part of ``mkdocs.yml`` the checks read."""

    docs_dir: Path
    #: Page paths relative to ``docs_dir``, in nav order.
    pages: tuple[str, ...]


@dataclass
class SiteReport:
    """Outcome of one :func:`check_site` pass."""

    internal_links: int = 0
    external_links: int = 0
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _nav_paths(nav, source: str) -> list[str]:
    """Page paths of a mkdocs nav list, sections flattened in order."""
    if not isinstance(nav, list):
        raise ConfigurationError(f"{source}: 'nav' must be a list")
    paths = []
    for item in nav:
        if isinstance(item, dict) and len(item) == 1:
            (item,) = item.values()
            if isinstance(item, list):
                paths.extend(_nav_paths(item, source))
                continue
        if not isinstance(item, str):
            raise ConfigurationError(
                f"{source}: nav entries must be 'path', 'Title: path' or "
                f"'Section: [...]' mappings, got {item!r}")
        paths.append(item)
    return paths


def load_config(config_path: str | Path) -> SiteConfig:
    """Parse ``mkdocs.yml`` into a :class:`SiteConfig`.

    Args:
        config_path: Path to the MkDocs configuration file.

    Returns:
        The parsed configuration (nav sections flattened).

    Raises:
        ConfigurationError: On a missing file, unparseable YAML or a
            malformed nav.
    """
    import yaml

    config_path = Path(config_path)
    if not config_path.exists():
        raise ConfigurationError(f"no mkdocs config at {config_path}")
    try:
        document = yaml.safe_load(config_path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"{config_path}: invalid YAML: {exc}") from None
    if not isinstance(document, dict) or "nav" not in document:
        raise ConfigurationError(f"{config_path}: needs a 'nav'")
    docs_dir = config_path.parent / str(document.get("docs_dir", "docs"))
    return SiteConfig(docs_dir=docs_dir,
                      pages=tuple(_nav_paths(document["nav"],
                                             str(config_path))))


_SLUG_STRIP = re.compile(r"[^\w\- ]", re.UNICODE)


def slugify(text: str) -> str:
    """GitHub-style anchor slug of a heading text.

    Args:
        text: The raw heading text.

    Returns:
        Lower-case slug with inline markup and punctuation removed and
        spaces as dashes.
    """
    text = re.sub(r"`([^`]*)`", r"\1", text)
    text = re.sub(r"\*\*([^*]+)\*\*", r"\1", text)
    text = re.sub(r"\*([^*]+)\*", r"\1", text)
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)
    return _SLUG_STRIP.sub("", text.strip().lower()).replace(" ", "-")


_HEADING = re.compile(r"^#{1,6}\s+(.*?)\s*#*\s*$")
_FENCE = re.compile(r"^(```+|~~~+)\s*[\w+-]*\s*$")
_CODE_SPAN = re.compile(r"`[^`]+`")
_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)|<(https?://[^>]+)>")


def scan(text: str) -> tuple[set[str], list[str]]:
    """Heading anchors and link targets of a Markdown page.

    Fenced code is skipped.  Links are found per block (a run of non-blank
    lines, or a heading), so a link label may wrap.  A code span hides any
    link inside it but may itself be a link's label.  Images count as
    links.  A repeated heading's anchor takes a ``-1``, ``-2``, ...
    suffix, as on GitHub.

    Args:
        text: The Markdown source.

    Returns:
        ``(anchors, links)``: the set of heading slugs and every link
        target as written, in document order.
    """
    anchors: set[str] = set()
    links: list[str] = []
    slug_counts: dict[str, int] = {}
    block: list[str] = []
    fence = None

    def flush() -> None:
        hidden = _CODE_SPAN.sub("code", " ".join(block))
        links.extend(a or b for a, b in _LINK.findall(hidden))
        block.clear()

    for line in text.split("\n"):
        stripped = line.strip()
        if fence is not None:
            if stripped.startswith(fence):
                fence = None
            continue
        opening = _FENCE.match(stripped)
        heading = _HEADING.match(line)
        if opening or heading or not stripped:
            flush()
        if opening:
            fence = opening.group(1)[:3]
        elif heading:
            slug = slugify(heading.group(1))
            count = slug_counts.get(slug, 0)
            slug_counts[slug] = count + 1
            anchors.add(slug if count == 0 else f"{slug}-{count}")
            block.append(heading.group(1))
            flush()
        elif stripped:
            block.append(stripped)
    flush()
    return anchors, links


def check_site(config: SiteConfig) -> SiteReport:
    """Run the nav, orphan, link and anchor checks over a docs tree.

    Args:
        config: The parsed ``mkdocs.yml`` (:func:`load_config`).

    Returns:
        The :class:`SiteReport`; its ``problems`` list every failure.
    """
    report = SiteReport()
    twice = sorted({p for p in config.pages if config.pages.count(p) > 1})
    if twice:
        report.problems.append(f"nav lists a page twice: {twice}")

    scans: dict[str, tuple[set[str], list[str]]] = {}
    for rel_path in config.pages:
        source = config.docs_dir / rel_path
        if not source.exists():
            report.problems.append(
                f"nav entry {rel_path!r} does not exist under "
                f"{config.docs_dir}")
            continue
        scans[rel_path] = scan(source.read_text())

    on_disk = {p.relative_to(config.docs_dir).as_posix()
               for p in config.docs_dir.rglob("*.md")}
    for orphan in sorted(on_disk - set(config.pages)):
        report.problems.append(
            f"page {orphan!r} exists under {config.docs_dir} but is not in "
            f"the mkdocs.yml nav")

    for rel_path, (_, links) in scans.items():
        for target in links:
            if target.startswith(("http://", "https://", "mailto:")):
                report.external_links += 1
                continue
            report.internal_links += 1
            path_part, _, anchor = target.partition("#")
            resolved = rel_path
            if path_part:
                resolved = posixpath.normpath(posixpath.join(
                    posixpath.dirname(rel_path), path_part))
            if resolved not in scans:
                report.problems.append(
                    f"{rel_path}: broken link {target!r} "
                    f"(no page {resolved!r} in the nav)")
            elif anchor and anchor not in scans[resolved][0]:
                report.problems.append(
                    f"{rel_path}: broken anchor {target!r} "
                    f"({resolved} has no heading #{anchor})")
    return report
