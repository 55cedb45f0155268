"""API reference generation from live docstrings.

``docs/api/*.md`` is *generated*: :func:`generate` imports the documented
modules, walks their public surface (``__all__``), converts docstrings to
Markdown and writes one page per module group.  The pages are committed, so
MkDocs builds the plain-Markdown tree without any plugin and the source
checks (:mod:`repro.docs.site`) see them like any other page; ``--check``
regenerates in memory and fails on drift (``repro docs check`` and the CI
docs job run it), so the committed reference cannot rot silently.

Docstring conventions the converter understands:

* Google-style ``Args:`` / ``Returns:`` / ``Raises:`` / ``Attributes:``
  sections (rendered as bold labels with definition lists),
* NumPy-style section underlines (``Parameters`` + dashes → bold label),
* Sphinx roles (``:class:`~repro.x.Y``` → code span) and double-backtick
  literals,
* ``::`` literal blocks (rendered as fenced code).

Every ``__all__`` member must carry a docstring — a missing one fails the
build, which is the enforcement teeth behind "every public function gets
Args/Returns".
"""

from __future__ import annotations

import functools
import inspect
import re
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError

__all__ = ["ApiPage", "API_PAGES", "render_page", "generate", "check"]


@dataclass(frozen=True)
class ApiPage:
    """One generated reference page: a title and the modules it documents."""

    filename: str
    title: str
    modules: tuple[str, ...]


#: The shipped reference pages (nav order of mkdocs.yml).
API_PAGES: tuple[ApiPage, ...] = (
    ApiPage("api/scenario.md", "repro.scenario",
            ("repro.scenario.spec", "repro.scenario.cache")),
    ApiPage("api/radio-batch.md", "repro.radio.batch",
            ("repro.radio.batch",)),
    ApiPage("api/solar-batch.md", "repro.solar.batch",
            ("repro.solar.batch",)),
    ApiPage("api/kernels.md", "repro.kernels",
            ("repro.kernels",)),
    ApiPage("api/optimize-mc.md", "repro.optimize.mc",
            ("repro.optimize.mc",)),
    ApiPage("api/simulation-batch.md", "repro.simulation.batch",
            ("repro.simulation.batch", "repro.simulation.elements")),
    ApiPage("api/study.md", "repro.study",
            ("repro.study.spec", "repro.study.engines", "repro.study.runner",
             "repro.study.journal", "repro.study.results",
             "repro.study.expressions")),
    ApiPage("api/faults.md", "repro.faults",
            ("repro.faults",)),
    ApiPage("api/distributed.md", "repro.study.distributed",
            ("repro.study.manifest", "repro.study.distributed")),
    ApiPage("api/network.md", "repro.network",
            ("repro.network.graph", "repro.network.frontier",
             "repro.network.optimize", "repro.network.presets")),
    ApiPage("api/service.md", "repro.service",
            ("repro.service.schemas", "repro.service.jobstore",
             "repro.service.queue", "repro.service.app")),
)

_GENERATED_HEADER = (
    "<!-- Generated by `python -m repro docs api` from the live\n"
    "     docstrings - do not edit by hand; regenerate instead. -->\n")

_ROLE = re.compile(r":(?:class|func|meth|mod|attr|data|exc|obj):`(~?)([^`]+)`")
_DOUBLE_BACKTICK = re.compile(r"``([^`]+)``")
_SECTION_UNDERLINE = re.compile(r"^\s*-{3,}\s*$")
_GOOGLE_SECTIONS = ("Args:", "Returns:", "Raises:", "Attributes:", "Yields:",
                    "Note:", "Example:", "Examples:")


def _inline_doc(text: str) -> str:
    def role(match: re.Match) -> str:
        target = match.group(2)
        if match.group(1) == "~":
            target = target.rsplit(".", 1)[-1]
        return f"`{target}`"

    text = _ROLE.sub(role, text)
    return _DOUBLE_BACKTICK.sub(r"`\1`", text)


def docstring_to_markdown(doc: str) -> str:
    """Convert one (dedented) docstring to the page's Markdown dialect.

    Args:
        doc: The docstring as returned by :func:`inspect.getdoc`.

    Returns:
        Markdown text: literal blocks fenced, NumPy/Google section headers
        bolded, Sphinx roles reduced to code spans.
    """
    lines = doc.split("\n")
    out: list[str] = []
    i = 0
    n = len(lines)
    while i < n:
        line = lines[i]
        nxt = lines[i + 1] if i + 1 < n else ""

        # NumPy section underline: "Parameters" + "----------", followed by
        # "name:" items with indented descriptions -> definition list.
        if line.strip() and _SECTION_UNDERLINE.match(nxt) and not line.startswith(" "):
            out.append(f"**{line.strip().rstrip(':')}:**")
            out.append("")
            i += 2
            while i < n:
                item_line = lines[i]
                after = lines[i + 1] if i + 1 < n else ""
                if not item_line.strip():
                    nxt_meaningful = after
                    if (nxt_meaningful.startswith(" ")
                            or (nxt_meaningful.strip()
                                and nxt_meaningful.rstrip().endswith(":"))):
                        i += 1
                        continue
                    break
                if _SECTION_UNDERLINE.match(after):
                    break  # next NumPy section; outer loop handles it
                if (not item_line.startswith(" ")
                        and item_line.rstrip().endswith(":")
                        and after.startswith(" ")):
                    out.append(f"- `{item_line.strip().rstrip(':')}` —")
                    i += 1
                    continue
                if item_line.startswith(" ") and out and out[-1].startswith("- "):
                    out[-1] = out[-1].rstrip() + " " + _inline_doc(
                        item_line.strip())
                    i += 1
                    continue
                break
            out.append("")
            continue

        # Literal block: a line ending in "::" introduces indented code.
        if line.rstrip().endswith("::"):
            intro = line.rstrip()[:-2].rstrip()
            if intro:
                out.append(_inline_doc(intro) + ":")
            i += 1
            while i < n and not lines[i].strip():
                i += 1
            block = []
            while i < n and (not lines[i].strip() or lines[i].startswith("  ")):
                block.append(lines[i])
                i += 1
            while block and not block[-1].strip():
                block.pop()
            indent = min((len(b) - len(b.lstrip()) for b in block if b.strip()),
                         default=0)
            out.append("```python")
            out.extend(b[indent:] if b.strip() else "" for b in block)
            out.append("```")
            continue

        # Google section header.
        if line.strip() in _GOOGLE_SECTIONS:
            out.append(f"**{line.strip().rstrip(':')}:**")
            out.append("")
            i += 1
            while i < n and (not lines[i].strip() or lines[i].startswith("  ")):
                item = lines[i].strip()
                if not item:
                    i += 1
                    continue
                first = re.match(r"^(\S[^:]*):\s+(.*)$", item)
                deeper = len(lines[i]) - len(lines[i].lstrip()) >= 8
                if first and not deeper:
                    out.append(f"- `{first.group(1)}` — "
                               f"{_inline_doc(first.group(2))}")
                elif out and out[-1].startswith("- "):
                    out[-1] += " " + _inline_doc(item)
                else:
                    out.append(f"- {_inline_doc(item)}")
                i += 1
            out.append("")
            continue

        out.append(_inline_doc(line))
        i += 1
    return "\n".join(out).strip() + "\n"


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _member_doc(qualname: str, obj, module_name: str) -> str:
    doc = inspect.getdoc(obj)
    if not doc or not doc.strip():
        raise ConfigurationError(
            f"public API member {module_name}.{qualname} has no docstring; "
            f"the reference pages require one (see docs/api)")
    return docstring_to_markdown(doc)


def _render_class(name: str, cls: type, module_name: str) -> list[str]:
    out = [f"### `{name}`", ""]
    if not inspect.isabstract(cls) and "__init__" in vars(cls):
        out += [f"```python\nclass {name}{_signature(cls.__init__)}\n```", ""]
    else:
        out += [f"```python\nclass {name}\n```", ""]
    out += [_member_doc(name, cls, module_name), ""]
    for attr, member in vars(cls).items():
        if attr.startswith("_"):
            continue
        if isinstance(member, (property, functools.cached_property)):
            doc = inspect.getdoc(member)
            if doc:
                out += [f"#### `{name}.{attr}` *(property)*", "",
                        docstring_to_markdown(doc), ""]
            continue
        if isinstance(member, (staticmethod, classmethod)):
            member = member.__func__
        if inspect.isfunction(member):
            doc = inspect.getdoc(member)
            if doc:
                out += [f"#### `{name}.{attr}{_signature(member)}`", "",
                        docstring_to_markdown(doc), ""]
    return out


def render_module(module_name: str) -> str:
    """Render one module's public surface (``__all__``) as Markdown.

    Args:
        module_name: Importable dotted module path.

    Returns:
        The Markdown section for the module.

    Raises:
        ConfigurationError: When the module lacks ``__all__`` / a module
            docstring, or any exported member lacks a docstring.
    """
    import importlib

    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        raise ConfigurationError(
            f"module {module_name} has no __all__; the API reference "
            f"documents the declared public surface only")
    if not (module.__doc__ or "").strip():
        raise ConfigurationError(f"module {module_name} has no docstring")

    out = [f"## `{module_name}`", "",
           docstring_to_markdown(inspect.getdoc(module)), ""]
    for name in exported:
        obj = getattr(module, name)
        if inspect.isclass(obj):
            out += _render_class(name, obj, module_name)
        elif inspect.isfunction(inspect.unwrap(obj)):  # e.g. lru_cache'd
            out += [f"### `{name}{_signature(obj)}`", "",
                    _member_doc(name, obj, module_name), ""]
        else:
            kind = type(obj).__name__
            out += [f"### `{name}` *(module data, {kind})*", ""]
    return "\n".join(out)


def render_page(page: ApiPage) -> str:
    """Render one full reference page (header + every module section)."""
    sections = [render_module(module) for module in page.modules]
    return (f"{_GENERATED_HEADER}\n# {page.title}\n\n"
            + "\n\n".join(sections).rstrip() + "\n")


def generate(docs_dir: str | Path) -> list[Path]:
    """Write every reference page under ``docs_dir``.

    Args:
        docs_dir: The site's source directory (pages land in
            ``docs_dir/api/``).

    Returns:
        The written paths.
    """
    docs_dir = Path(docs_dir)
    written = []
    for page in API_PAGES:
        path = docs_dir / page.filename
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render_page(page))
        written.append(path)
    return written


def check(docs_dir: str | Path) -> list[str]:
    """Compare committed pages against a fresh in-memory render.

    Args:
        docs_dir: The site's source directory.

    Returns:
        Human-readable drift messages; empty when everything is in sync.
    """
    docs_dir = Path(docs_dir)
    problems = []
    for page in API_PAGES:
        path = docs_dir / page.filename
        if not path.exists():
            problems.append(
                f"{path}: missing (run `python -m repro docs api`)")
            continue
        if path.read_text() != render_page(page):
            problems.append(
                f"{path}: stale — docstrings changed; regenerate with "
                f"`python -m repro docs api`")
    return problems
