"""Tests for the documentation tooling (repro.docs).

The repository docs (mkdocs.yml + docs/) must pass the source checks, the
generated API reference must match the live docstrings, and the checks
must actually catch the failure modes they exist for (missing nav
targets, orphan pages, broken links and anchors, stale API pages), both
through the library and through ``repro docs check``'s exit code.
"""

import re
from pathlib import Path

import pytest

from repro.cli import main
from repro.docs import apigen, check_site, load_config, scan, slugify
from repro.errors import ConfigurationError

REPO_ROOT = Path(__file__).resolve().parents[1]
MKDOCS_YML = REPO_ROOT / "mkdocs.yml"


# -- markdown scanner ---------------------------------------------------------


class TestScanner:
    def test_headings_and_slugs(self):
        anchors, _ = scan("# Top Title\n\n## A `code` Section!\n")
        assert anchors == {"top-title", "a-code-section"}

    def test_duplicate_headings_get_unique_slugs(self):
        anchors, _ = scan("## Same\n\n## Same\n\n## Same\n")
        assert anchors == {"same", "same-1", "same-2"}

    @pytest.mark.parametrize("fence", ("```", "~~~", "```python"))
    def test_fenced_code_is_skipped(self, fence):
        anchors, links = scan(f"# Real\n{fence}\n# not a heading\n"
                              f"[x](gone.md)\n{fence[:3]}\n[y](kept.md)\n")
        assert anchors == {"real"}
        assert links == ["kept.md"]

    def test_links_in_document_order(self):
        _, links = scan("A [link](other.md#sec) and ![img](pic.png)\n"
                        "then [a wrapped\nlabel](wrapped.md) <https://x.org>\n"
                        "\n## Heading [in](heading.md)\n")
        assert links == ["other.md#sec", "pic.png", "wrapped.md",
                         "https://x.org", "heading.md"]

    def test_code_span_hides_links_inside_it(self):
        assert scan("Write `[text](target.md)` for a link.\n")[1] == []

    def test_code_span_label_is_a_link(self):
        assert scan("See [`compute_hash`](studies.md#store).\n")[1] == [
            "studies.md#store"]

    def test_slugify(self):
        assert slugify("Reproducing the paper") == "reproducing-the-paper"
        assert slugify("`repro.study` — Engines?") == "reprostudy--engines"


# -- real site ----------------------------------------------------------------


class TestRealSite:
    def test_repository_docs_pass_the_checks(self):
        report = check_site(load_config(MKDOCS_YML))
        assert report.problems == []
        assert report.internal_links > 0

    def test_issue_required_pages_present(self):
        pages = set(load_config(MKDOCS_YML).pages)
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


def _check(config: Path):
    return check_site(load_config(config))


class TestStrictChecks:
    def test_missing_nav_target_fails(self, tmp_path):
        config = _write_site(tmp_path, {"index.md": "# Hi\n"},
                             [("Home", "index.md"), ("Gone", "gone.md")])
        (problem,) = _check(config).problems
        assert problem.startswith("nav entry 'gone.md' does not exist")

    def test_page_listed_twice_fails(self, tmp_path):
        config = _write_site(tmp_path, {"index.md": "# Hi\n"},
                             [("Home", "index.md"), ("Again", "index.md")])
        assert _check(config).problems == [
            "nav lists a page twice: ['index.md']"]

    def test_orphan_page_fails(self, tmp_path):
        config = _write_site(tmp_path,
                             {"index.md": "# Hi\n", "stray.md": "# S\n"},
                             [("Home", "index.md")])
        (problem,) = _check(config).problems
        assert "'stray.md'" in problem and "not in the mkdocs.yml nav" in problem

    def test_broken_link_fails(self, tmp_path):
        config = _write_site(tmp_path,
                             {"index.md": "# Hi\n[dead](missing.md)\n"},
                             [("Home", "index.md")])
        (problem,) = _check(config).problems
        assert "broken link 'missing.md'" in problem

    def test_code_span_labelled_link_is_checked(self, tmp_path):
        config = _write_site(tmp_path, {"index.md": "# Hi\n[`x`](gone.md)\n"},
                             [("Home", "index.md")])
        report = _check(config)
        assert report.internal_links == 1
        assert report.problems == [
            "index.md: broken link 'gone.md' (no page 'gone.md' in the nav)"]

    def test_broken_anchor_fails(self, tmp_path):
        config = _write_site(
            tmp_path,
            {"index.md": "# Hi\n[x](other.md#nope)\n",
             "other.md": "# Other\n\n## Real Section\n"},
            [("Home", "index.md"), ("Other", "other.md")])
        (problem,) = _check(config).problems
        assert "no heading #nope" in problem

    def test_same_page_anchor_checked(self, tmp_path):
        config = _write_site(tmp_path,
                             {"index.md": "# Hi\n[up](#hi) [x](#nope)\n"},
                             [("Home", "index.md")])
        (problem,) = _check(config).problems
        assert "broken anchor '#nope'" in problem

    def test_valid_anchor_passes(self, tmp_path):
        config = _write_site(
            tmp_path,
            {"index.md": "# Hi\n[x](other.md#real-section)\n",
             "other.md": "# Other\n\n## Real Section\n"},
            [("Home", "index.md"), ("Other", "other.md")])
        report = _check(config)
        assert report.ok and report.internal_links == 1

    def test_nested_nav_sections_are_flattened(self, tmp_path):
        config = tmp_path / "mkdocs.yml"
        config.write_text("nav:\n  - Home: index.md\n  - A:\n"
                          "      - B:\n          - b.md\n")
        assert load_config(config).pages == ("index.md", "b.md")

    def test_malformed_nav_rejected(self, tmp_path):
        config = tmp_path / "mkdocs.yml"
        config.write_text("nav:\n  - Home: {a: 1}\n")
        with pytest.raises(ConfigurationError, match="nav entries"):
            load_config(config)

    def test_external_links_counted_not_fetched(self, tmp_path):
        config = _write_site(
            tmp_path, {"index.md": "# Hi\n[x](https://example.org/nope)\n"},
            [("Home", "index.md")])
        report = _check(config)
        assert report.ok and report.external_links == 1

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


@pytest.fixture(scope="module")
def api_pages(tmp_path_factory):
    """The generated API pages, so a synthetic site passes the API check."""
    docs = tmp_path_factory.mktemp("api")
    apigen.generate(docs)
    return {page.filename: (docs / page.filename).read_text()
            for page in apigen.API_PAGES}


class TestDocsCli:
    def test_check_repository_docs(self, capsys):
        assert main(["docs", "check"]) == 0
        out = capsys.readouterr().out
        assert "pages" in out and "problems" not in out

    def test_api_check(self, capsys):
        assert main(["docs", "api", "--check"]) == 0
        assert "in sync" in capsys.readouterr().out

    @pytest.mark.parametrize("pages, nav, message", [
        ({}, [], None),
        ({}, [("Gone", "gone.md")], "'gone.md' does not exist"),
        ({"stray.md": "# S\n"}, [], "'stray.md' exists"),
        ({"index.md": "# Hi\n[d](gone.md)\n"}, [], "broken link"),
        ({"index.md": "# Hi\n[`d`](gone.md)\n"}, [], "broken link"),
        ({"index.md": "# Hi\n[d](#nope)\n"}, [], "broken anchor"),
        ({"api/study.md": "# repro.study\n"}, [], "stale"),
    ], ids=["clean", "missing-nav-target", "orphan-page", "broken-link",
            "code-span-link", "broken-anchor", "stale-api-page"])
    def test_check_exit_code(self, tmp_path, capsys, api_pages, pages, nav,
                             message):
        config = _write_site(
            tmp_path, {"index.md": "# Hi\n", **api_pages, **pages},
            [("Home", "index.md"), *nav, *((p, p) for p in api_pages)])
        code = main(["docs", "check", "--config", str(config)])
        err = capsys.readouterr().err
        if message is None:
            assert code == 0 and err == ""
        else:
            assert code == 1
            (problem,) = err.splitlines()
            assert message in problem

    def test_unreadable_config_exits_1(self, tmp_path, capsys):
        code = main(["docs", "check", "--config", str(tmp_path / "no.yml")])
        assert code == 1
        assert "no mkdocs config" in capsys.readouterr().err
