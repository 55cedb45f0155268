"""Documentation tooling: source checks and the generated API reference.

MkDocs renders the site; this package keeps its source honest with PyYAML
and the stdlib only:

* :mod:`repro.docs.site` — nav, orphan-page, link and anchor checks over
  the ``mkdocs.yml`` + ``docs/`` tree, through a Markdown source scanner;
* :mod:`repro.docs.apigen` — API reference pages generated from live
  docstrings, with a drift check.

CLI: ``repro docs check`` and ``repro docs api [--check]``.
"""

from repro._lazy import lazy_exports

__all__ = [
    "API_PAGES",
    "check",
    "generate",
    "render_page",
    "SiteReport",
    "check_site",
    "load_config",
    "scan",
    "slugify",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "apigen": ("API_PAGES", "check", "generate", "render_page"),
    "site": ("SiteReport", "check_site", "load_config", "scan", "slugify"),
})
