"""Journal schema and durability contracts (ISSUE-8 satellites).

Two load-bearing docstring tables document the JSONL event schemas:
:mod:`repro.study.journal` (the runner's ``run.jsonl``) and
:mod:`repro.service.jobstore` (the service's ``jobs.jsonl``).  This module
keeps them honest by AST-introspecting **every** ``emit(...)`` call site in
the emitting modules and asserting the event names and field sets match the
tables exactly — schema drift in either direction (an undocumented field or
a documented-but-never-emitted event) fails the build.

It also pins the journal's durability behaviours: a torn *final* line is
tolerated silently (the one artifact an interrupted writer can leave),
mid-file corruption is surfaced, the persistent append handle survives
multiple emits and reopens after ``run_end``, and disk errors never
propagate out of ``emit``.
"""

import ast
import inspect
import json
import re
import warnings
from pathlib import Path

import pytest

import repro.service.jobstore
import repro.study.distributed
import repro.study.journal
import repro.study.runner
from repro.study.journal import RunJournal, read_journal, scan_journal

# -- docstring-table introspection --------------------------------------------


def parse_event_table(docstring: str) -> dict[str, set[str]]:
    """Parse an ``event / extra fields`` reST grid table from a docstring.

    Rows start at column zero with the event name; indented lines continue
    the previous row's field list.  Parenthesised annotations are stripped.
    """
    lines = docstring.splitlines()
    separators = [index for index, line in enumerate(lines)
                  if re.fullmatch(r"=+ =+\s*", line)]
    assert len(separators) == 3, "expected a single three-rule grid table"
    events: dict[str, set[str]] = {}
    current = None
    for line in lines[separators[1] + 1:separators[2]]:
        if not line.strip():
            continue
        if line[0].isspace():
            assert current is not None
            fields_text = line.strip()
        else:
            current, _, fields_text = line.partition(" ")
            events[current] = set()
        fields_text = re.sub(r"\([^)]*\)", "", fields_text)
        events[current].update(
            field.strip() for field in fields_text.split(",")
            if field.strip())
    return events


def emit_call_sites(module) -> dict[str, list[set[str]]]:
    """Every ``*.emit("<event>", field=...)`` call in a module's source.

    Returns a mapping of event name to the list of keyword-field sets seen
    at its call sites.  Non-literal event names or ``**kwargs`` expansions
    fail the collection — the schema must be statically visible.
    """
    tree = ast.parse(inspect.getsource(module))
    sites: dict[str, list[set[str]]] = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"):
            continue
        assert node.args and isinstance(node.args[0], ast.Constant), (
            f"emit() at line {node.lineno} must use a literal event name")
        event = node.args[0].value
        fields = set()
        for keyword in node.keywords:
            assert keyword.arg is not None, (
                f"emit({event!r}) at line {node.lineno} uses **kwargs; "
                f"fields must be literal keywords")
            fields.add(keyword.arg)
        sites.setdefault(event, []).append(fields)
    return sites


class TestRunnerJournalSchema:
    def table(self):
        return parse_event_table(repro.study.journal.__doc__)

    def sites(self):
        # The run.jsonl schema is emitted by two modules: the supervised
        # runner and the distributed layer (shard manifests, merge,
        # refresh) — the table documents their union.
        sites = emit_call_sites(repro.study.runner)
        for event, field_sets in emit_call_sites(
                repro.study.distributed).items():
            sites.setdefault(event, []).extend(field_sets)
        return sites

    def test_every_emitted_event_is_documented(self):
        table = self.table()
        for event, field_sets in self.sites().items():
            assert event in table, f"undocumented journal event {event!r}"
            for fields in field_sets:
                assert fields == table[event], (
                    f"event {event!r} emits fields {sorted(fields)} but the "
                    f"journal.py table documents {sorted(table[event])}")

    def test_every_documented_event_is_emitted(self):
        emitted = set(self.sites())
        documented = set(self.table())
        assert documented == emitted, (
            f"journal.py documents events never emitted by the runner or "
            f"the distributed layer: {sorted(documented - emitted)}")


class TestJobStoreSchema:
    def table(self):
        return parse_event_table(repro.service.jobstore.__doc__)

    def sites(self):
        return emit_call_sites(repro.service.jobstore)

    def test_every_emitted_event_is_documented(self):
        table = self.table()
        for event, field_sets in self.sites().items():
            assert event in table, f"undocumented jobstore event {event!r}"
            for fields in field_sets:
                assert fields == table[event], (
                    f"event {event!r} emits fields {sorted(fields)} but the "
                    f"jobstore.py table documents {sorted(table[event])}")

    def test_every_documented_event_is_emitted(self):
        assert set(self.table()) == set(self.sites())


# -- torn-tail vs mid-file corruption -----------------------------------------


def write_lines(path: Path, *lines: str) -> None:
    path.write_text("".join(line + "\n" for line in lines))


class TestScanJournal:
    def test_clean_journal_round_trips(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.emit("run_start", study="s")
        journal.emit("run_end", computed=1)
        events, skipped = scan_journal(path)
        assert [event["event"] for event in events] == ["run_start",
                                                        "run_end"]
        assert skipped == 0

    def test_torn_final_line_is_tolerated_silently(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(json.dumps({"event": "run_start"}) + "\n"
                        + '{"event": "fini')  # interrupted mid-write
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning fails the test
            events, skipped = scan_journal(path)
            parsed = read_journal(path)
        assert skipped == 0
        assert [event["event"] for event in events] == ["run_start"]
        assert parsed == events

    def test_mid_file_corruption_is_counted(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_lines(path,
                    json.dumps({"event": "run_start"}),
                    "garbage not json",
                    json.dumps({"event": "run_end"}))
        events, skipped = scan_journal(path)
        assert skipped == 1
        assert [event["event"] for event in events] == ["run_start",
                                                        "run_end"]

    def test_mid_file_corruption_warns_through_read_journal(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_lines(path, "garbage", json.dumps({"event": "run_end"}))
        with pytest.warns(RuntimeWarning, match="1 malformed"):
            events = read_journal(path)
        assert [event["event"] for event in events] == ["run_end"]

    def test_missing_journal_reads_empty(self, tmp_path):
        assert scan_journal(tmp_path / "absent.jsonl") == ([], 0)
        assert read_journal(tmp_path / "absent.jsonl") == []


# -- persistent append handle -------------------------------------------------


class TestPersistentHandle:
    def test_handle_stays_open_across_emits(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        journal.emit("run_start", study="s")
        handle = journal._handle
        assert handle is not None and not handle.closed
        journal.emit("submit", shard=0)
        assert journal._handle is handle  # same handle, no reopen cycle

    def test_run_end_closes_and_later_emit_reopens(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.emit("run_start", study="s")
        journal.emit("run_end", computed=1)
        assert journal._handle is None
        journal.emit("run_start", study="s2")  # second run, same journal
        assert journal._handle is not None
        journal.close()
        events, skipped = scan_journal(path)
        assert skipped == 0
        assert [event["event"] for event in events] == [
            "run_start", "run_end", "run_start"]

    def test_every_emit_is_flushed(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.emit("run_start", study="s")
        # Visible to an independent reader *before* any close.
        assert scan_journal(path)[0][0]["event"] == "run_start"
        journal.close()

    def test_disk_error_is_swallowed_and_handle_recovers(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.emit("run_start", study="s")

        class ExplodingHandle:
            closed = False

            def write(self, line):
                raise OSError("disk full")

            def close(self):
                self.closed = True

        journal._handle = ExplodingHandle()
        journal.emit("submit", shard=0)  # must not raise
        assert journal._handle is None  # broken handle discarded
        journal.emit("finish", shard=0)  # reopens transparently
        journal.close()
        events, _ = scan_journal(path)
        assert [event["event"] for event in events] == ["run_start",
                                                        "finish"]

    def test_append_replays_verbatim_and_keeps_the_handle(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.emit("run_start", study="s")
        replayed = {"event": "run_end", "t": 1.5, "computed": 2}
        journal.append(replayed)
        # A replayed run_end is not this journal's own: the handle stays.
        assert journal._handle is not None
        journal.close()
        lines = path.read_text().splitlines()
        assert lines[1] == json.dumps(replayed)
        assert json.loads(lines[0])["event"] == "run_start"

    def test_append_swallows_disk_errors(self, tmp_path):
        path = tmp_path / "run.jsonl"
        journal = RunJournal(path)
        journal.append({"event": "run_start"})

        class ExplodingHandle:
            closed = False

            def write(self, line):
                raise OSError("disk full")

            def close(self):
                self.closed = True

        journal._handle = ExplodingHandle()
        journal.append({"event": "submit"})  # must not raise
        assert journal._handle is None
        journal.append({"event": "finish"})
        journal.close()
        assert [json.loads(line)["event"]
                for line in path.read_text().splitlines()] == ["run_start",
                                                               "finish"]

    def test_disabled_journal_never_opens(self, tmp_path):
        journal = RunJournal(None)
        journal.emit("run_start", study="s")
        assert journal._handle is None

    def test_context_manager_closes(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunJournal(path) as journal:
            journal.emit("run_start", study="s")
            assert journal._handle is not None
        assert journal._handle is None

    def test_document_mapping_order_survives_the_round_trip(self, tmp_path):
        # Axis declaration order is semantic (it fixes case enumeration);
        # the journal must not canonicalise nested payloads.
        path = tmp_path / "jobs.jsonl"
        document = {"axes": {"zeta": [1], "alpha": [2]}}
        journal = RunJournal(path)
        journal.emit("job_submitted", document=document)
        journal.close()
        events, _ = scan_journal(path)
        assert list(events[0]["document"]["axes"]) == ["zeta", "alpha"]
