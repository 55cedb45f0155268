"""Tests for the built-from-source documentation tooling (repro.docs).

The real site (mkdocs.yml + docs/) must strict-build, the generated API
reference must match the live docstrings, and the strict checks must
actually catch the failure modes they exist for (missing nav targets,
orphan pages, broken links and anchors, stale API pages).
"""

import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.docs import apigen, build_site, load_config, render, slugify
from repro.errors import ConfigurationError

REPO_ROOT = Path(__file__).resolve().parents[1]
MKDOCS_YML = REPO_ROOT / "mkdocs.yml"


# -- markdown renderer --------------------------------------------------------


class TestMarkdown:
    def test_headings_and_slugs(self):
        page = render("# Top Title\n\n## A `code` Section!\n")
        assert page.title == "Top Title"
        assert page.headings == [(1, "Top Title", "top-title"),
                                 (2, "A code Section!", "a-code-section")]
        assert '<h2 id="a-code-section">' in page.html

    def test_duplicate_headings_get_unique_slugs(self):
        page = render("## Same\n\n## Same\n")
        assert page.anchors == {"same", "same-1"}

    def test_fenced_code_is_escaped_verbatim(self):
        page = render("```python\nx = a < b  # **not bold**\n```\n")
        assert "x = a &lt; b  # **not bold**" in page.html
        assert "<strong>" not in page.html

    def test_inline_markup(self):
        page = render("A **bold** *em* `co_de` [link](other.md#sec) here.\n")
        assert "<strong>bold</strong>" in page.html
        assert "<em>em</em>" in page.html
        assert "<code>co_de</code>" in page.html
        assert '<a href="other.md#sec">link</a>' in page.html
        assert page.links == ["other.md#sec"]

    def test_lists_and_tables(self):
        page = render("- one\n- two\n\n| a | b |\n|---|---|\n| 1 | 2 |\n")
        assert "<ul>" in page.html and "<li>one</li>" in page.html
        assert "<th>a</th>" in page.html and "<td>2</td>" in page.html

    def test_ordered_list(self):
        page = render("1. first\n2. second\n")
        assert "<ol>" in page.html

    def test_slugify(self):
        assert slugify("Reproducing the paper") == "reproducing-the-paper"
        assert slugify("`repro.study` — Engines?") == "reprostudy--engines"


# -- real site ----------------------------------------------------------------


class TestRealSite:
    def test_strict_build_of_repository_docs(self, tmp_path):
        report = build_site(MKDOCS_YML, output_dir=tmp_path, strict=True)
        assert report.ok
        assert report.pages_built == len(load_config(MKDOCS_YML).pages)
        index = (tmp_path / "index.html").read_text()
        assert "Railway" in index
        assert (tmp_path / "api" / "study.html").exists()

    def test_issue_required_pages_present(self):
        pages = {path for _, path in load_config(MKDOCS_YML).pages}
        assert {"index.md", "architecture.md", "reproducing.md",
                "studies.md", "regression.md"} <= pages
        assert {"api/scenario.md", "api/radio-batch.md", "api/solar-batch.md",
                "api/optimize-mc.md", "api/simulation-batch.md",
                "api/study.md"} <= pages

    def test_api_reference_in_sync(self):
        assert apigen.check(REPO_ROOT / "docs") == []

    def test_api_pages_cover_issue_modules(self):
        documented = {m for page in apigen.API_PAGES for m in page.modules}
        assert {"repro.scenario.spec", "repro.radio.batch",
                "repro.solar.batch", "repro.optimize.mc",
                "repro.simulation.batch", "repro.study.spec"} <= documented

    @pytest.mark.parametrize("page", ("README.md", "docs/index.md"))
    def test_quickstart_runs(self, page, tmp_path, monkeypatch):
        # The first python block is the quickstart; a name it uses that
        # leaves the package fails here instead of going stale in the docs.
        text = (REPO_ROOT / page).read_text()
        block = re.search(r"^```python\n(.*?)^```", text, re.M | re.S)
        monkeypatch.chdir(tmp_path)
        exec(compile(block.group(1), page, "exec"), {"__name__": "quickstart"})


# -- strict checks catch real failures ----------------------------------------


def _write_site(tmp_path: Path, pages: dict, nav: list) -> Path:
    docs = tmp_path / "docs"
    docs.mkdir(exist_ok=True)
    for name, body in pages.items():
        target = docs / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(body)
    nav_yaml = "\n".join(f"  - {title}: {path}" for title, path in nav)
    config = tmp_path / "mkdocs.yml"
    config.write_text(f"site_name: t\ndocs_dir: docs\nnav:\n{nav_yaml}\n")
    return config


class TestStrictChecks:
    def test_missing_nav_target_fails(self, tmp_path):
        config = _write_site(tmp_path, {"index.md": "# Hi\n"},
                             [("Home", "index.md"), ("Gone", "gone.md")])
        with pytest.raises(ConfigurationError, match="gone.md"):
            build_site(config, strict=True, check_api=False)

    def test_orphan_page_fails(self, tmp_path):
        config = _write_site(tmp_path,
                             {"index.md": "# Hi\n", "stray.md": "# S\n"},
                             [("Home", "index.md")])
        with pytest.raises(ConfigurationError, match="stray.md"):
            build_site(config, strict=True, check_api=False)

    def test_broken_link_fails(self, tmp_path):
        config = _write_site(tmp_path,
                             {"index.md": "# Hi\n[dead](missing.md)\n"},
                             [("Home", "index.md")])
        with pytest.raises(ConfigurationError, match="broken link"):
            build_site(config, strict=True, check_api=False)

    def test_broken_anchor_fails(self, tmp_path):
        config = _write_site(
            tmp_path,
            {"index.md": "# Hi\n[x](other.md#nope)\n",
             "other.md": "# Other\n\n## Real Section\n"},
            [("Home", "index.md"), ("Other", "other.md")])
        with pytest.raises(ConfigurationError, match="no heading"):
            build_site(config, strict=True, check_api=False)

    def test_valid_anchor_passes(self, tmp_path):
        config = _write_site(
            tmp_path,
            {"index.md": "# Hi\n[x](other.md#real-section)\n",
             "other.md": "# Other\n\n## Real Section\n"},
            [("Home", "index.md"), ("Other", "other.md")])
        report = build_site(config, strict=True, check_api=False)
        assert report.ok and report.internal_links == 1

    def test_external_links_counted_not_fetched(self, tmp_path):
        config = _write_site(
            tmp_path, {"index.md": "# Hi\n[x](https://example.org/nope)\n"},
            [("Home", "index.md")])
        report = build_site(config, strict=True, check_api=False)
        assert report.external_links == 1

    def test_non_strict_reports_instead_of_raising(self, tmp_path):
        config = _write_site(tmp_path, {"index.md": "# Hi\n[d](gone.md)\n"},
                             [("Home", "index.md")])
        report = build_site(config, strict=False, check_api=False)
        assert not report.ok
        assert any("broken link" in p for p in report.problems)

    def test_stale_api_page_detected(self, tmp_path):
        config = _write_site(tmp_path, {"index.md": "# Hi\n"},
                             [("Home", "index.md")])
        docs = tmp_path / "docs"
        apigen.generate(docs)
        target = docs / apigen.API_PAGES[0].filename
        target.write_text(target.read_text() + "\nstale edit\n")
        problems = apigen.check(docs)
        assert len(problems) == 1 and "stale" in problems[0]


# -- docstring coverage enforcement -------------------------------------------


class TestApigen:
    def test_all_documented_modules_render(self):
        for page in apigen.API_PAGES:
            text = apigen.render_page(page)
            assert text.startswith("<!--")
            assert f"# {page.title}" in text

    def test_missing_docstring_is_an_error(self, monkeypatch):
        import repro.study.runner as runner_module

        monkeypatch.delattr(runner_module.run_study, "__doc__")
        with pytest.raises(ConfigurationError, match="no docstring"):
            apigen.render_module("repro.study.runner")

    def test_docstring_to_markdown_sections(self):
        doc = ("Summary line.\n\nArgs:\n    alpha: The first thing.\n"
               "    beta: The second\n        thing continued.\n\n"
               "Returns:\n    The value.\n")
        text = apigen.docstring_to_markdown(doc)
        assert "**Args:**" in text
        assert "- `alpha` — The first thing." in text
        assert "thing continued." in text
        assert "**Returns:**" in text

    def test_docstring_literal_block_fenced(self):
        doc = "Use it::\n\n    x = 1\n    y = 2\n\nDone.\n"
        text = apigen.docstring_to_markdown(doc)
        assert "```python\nx = 1\ny = 2\n```" in text


# -- CLI ----------------------------------------------------------------------


class TestDocsCli:
    def test_build_strict(self, tmp_path, capsys):
        code = main(["docs", "build", "--strict",
                     "--output", str(tmp_path / "site")])
        assert code == 0
        assert "pages" in capsys.readouterr().out
        assert (tmp_path / "site" / "architecture.html").exists()

    def test_api_check(self, capsys):
        assert main(["docs", "api", "--check"]) == 0
        assert "in sync" in capsys.readouterr().out

    def test_build_failure_exit_code(self, tmp_path, capsys):
        config = _write_site(tmp_path, {"index.md": "# Hi\n[d](gone.md)\n"},
                             [("Home", "index.md")])
        code = main(["docs", "build", "--strict", "--config", str(config),
                     "--no-api-check"])
        assert code == 1
        assert "broken link" in capsys.readouterr().err
