"""Built-from-source documentation tooling.

Three pieces, all dependency-light (PyYAML + stdlib):

* :mod:`repro.docs.md` — the Markdown renderer (GitHub-flavoured subset);
* :mod:`repro.docs.apigen` — API reference pages generated from live
  docstrings, with a drift check;
* :mod:`repro.docs.site` — the site builder + strict nav/link/anchor
  validation over the same ``mkdocs.yml`` + ``docs/`` tree that real MkDocs
  consumes in CI.

CLI: ``repro docs build [--strict] [--output DIR]`` and
``repro docs api [--check]``.
"""

from repro._lazy import lazy_exports

__all__ = [
    "API_PAGES",
    "check",
    "generate",
    "render_page",
    "render",
    "slugify",
    "BuildReport",
    "build_site",
    "load_config",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "apigen": ("API_PAGES", "check", "generate", "render_page"),
    "md": ("render", "slugify"),
    "site": ("BuildReport", "build_site", "load_config"),
})
