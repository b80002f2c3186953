"""The shared persistence primitive: atomic writes and the JSONL journal.

Every writer under ``src/`` goes through :mod:`repro.fsutil`, so the
atomicity and torn-tail properties pinned here hold for all of them;
the last test keeps it that way.
"""

import json
import os
import re
from pathlib import Path

import pytest

from repro import fsutil
from repro.fsutil import JsonlJournal, atomic_write_text

SRC = Path(__file__).resolve().parents[1] / "src"
HEADER = {"schema": "test/journal@1", "params": {"seed": 0}}


def _fail_replace(*args, **kwargs):
    raise OSError("injected rename failure")


class TestAtomicWriteText:
    @pytest.mark.parametrize("durable", [True, False])
    def test_failed_rename_keeps_old_content_and_no_temp(
        self, tmp_path, monkeypatch, durable
    ):
        path = tmp_path / "doc.json"
        atomic_write_text(path, "old", durable=durable)
        monkeypatch.setattr(fsutil.os, "replace", _fail_replace)
        with pytest.raises(OSError):
            atomic_write_text(path, "new", durable=durable)
        assert path.read_text() == "old"
        assert not list(tmp_path.glob("*.tmp*"))

    def test_failed_first_write_leaves_no_file(self, tmp_path, monkeypatch):
        path = tmp_path / "doc.json"
        monkeypatch.setattr(fsutil.os, "replace", _fail_replace)
        with pytest.raises(OSError):
            atomic_write_text(path, "new")
        assert list(tmp_path.iterdir()) == []


class TestJsonlJournal:
    def _written(self, path, docs):
        journal = JsonlJournal(path, HEADER)
        for doc in docs:
            journal.append(doc)
        journal.close()

    def test_missing_file_has_no_records(self, tmp_path):
        assert list(JsonlJournal(tmp_path / "absent", HEADER).records()) == []

    def test_torn_tail_stops_records_at_the_torn_line(self, tmp_path):
        path = tmp_path / "j"
        self._written(path, [{"n": 1}, {"n": 2}])
        with open(path, "a") as fh:
            fh.write('{"n": 3')  # killed mid-append
        assert list(JsonlJournal(path, HEADER).records()) == [
            {"n": 1}, {"n": 2},
        ]

    def test_non_object_line_stops_records(self, tmp_path):
        path = tmp_path / "j"
        self._written(path, [{"n": 1}])
        with open(path, "a") as fh:
            fh.write('[1, 2]\n{"n": 2}\n')
        assert list(JsonlJournal(path, HEADER).records()) == [{"n": 1}]

    @pytest.mark.parametrize("first_line", [
        '{"schema": "test/jour',  # torn header
        json.dumps({"schema": "test/journal@2", "params": {"seed": 0}}),
        json.dumps({"schema": "test/journal@1", "params": {"seed": 1}}),
        "",
    ])
    def test_torn_or_different_header_yields_nothing(self, tmp_path,
                                                     first_line):
        path = tmp_path / "j"
        path.write_text(first_line + '\n{"n": 1}\n')
        assert list(JsonlJournal(path, HEADER).records()) == []

    def test_first_append_rewrites_and_drops_torn_tail(self, tmp_path):
        path = tmp_path / "j"
        self._written(path, [{"n": 1}])
        with open(path, "a") as fh:
            fh.write('{"n": 2')
        kept = list(JsonlJournal(path, HEADER).records())
        journal = JsonlJournal(path, HEADER, lambda: kept)
        journal.append({"n": 3})
        journal.close()
        assert list(JsonlJournal(path, HEADER).records()) == [
            {"n": 1}, {"n": 3},
        ]
        assert not list(tmp_path.glob("*.tmp*"))

    def test_lines_are_sorted_key_json(self, tmp_path):
        path = tmp_path / "j"
        self._written(path, [{"b": 1, "a": [1, 2]}])
        assert path.read_text() == (
            '{"params": {"seed": 0}, "schema": "test/journal@1"}\n'
            '{"a": [1, 2], "b": 1}\n'
        )

    def test_literal_run_journal_bytes_read_back(self, tmp_path):
        # a checkpoint journal in the layout written before the shared
        # type existed, byte for byte.
        path = tmp_path / "j"
        raw = (
            '{"params": {"seed": 0}, "schema": "repro/run-journal@1"}\n'
            '{"cell": "stage_a", "files": ["a.txt"]}\n'
            '{"cell": "stage_b", "files": []}\n'
        )
        path.write_text(raw)
        header = {"schema": "repro/run-journal@1", "params": {"seed": 0}}
        journal = JsonlJournal(path, header)
        records = list(journal.records())
        assert records == [
            {"cell": "stage_a", "files": ["a.txt"]},
            {"cell": "stage_b", "files": []},
        ]
        journal.rewrite(records)
        journal.close()
        assert path.read_text() == raw

    def test_literal_service_journal_bytes_read_back(self, tmp_path):
        path = tmp_path / "j"
        raw = (
            '{"schema": "repro/service-journal@1"}\n'
            '{"event": "submit", "job": "j1", "spec": {"app": "nn"}, '
            '"tenant": "t"}\n'
            '{"error": null, "error_kind": null, "event": "done", '
            '"job": "j1", "outcome": "done"}\n'
        )
        path.write_text(raw)
        journal = JsonlJournal(path, {"schema": "repro/service-journal@1"})
        records = list(journal.records())
        assert [r["event"] for r in records] == ["submit", "done"]
        journal.rewrite(records)
        journal.close()
        assert path.read_text() == raw


def test_only_fsutil_renames_or_fsyncs():
    pattern = re.compile(r"os\.(replace|fsync)\(")
    offenders = sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        if pattern.search(path.read_text(encoding="utf-8"))
    )
    assert offenders == [os.path.join("repro", "fsutil.py")]
