"""Docs stay honest: no broken references, no tracked bytecode.

The slow half of the checker (executing the docs/OBSERVABILITY.md
examples) runs in the CI docs job via
``python tools/check_docs.py --run-examples``; here we pin the fast
invariants on every test run.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import check_docs  # noqa: E402


def test_no_broken_doc_references():
    assert check_docs.check_links() == []


def test_no_dangling_anchors():
    assert check_docs.check_anchors() == []


def test_docs_are_clean_utf8():
    assert check_docs.check_encoding() == []


def test_mojibake_regex_catches_double_encoding():
    # "→" and "—" read as cp1252 — the exact corruption the SNIPPETS.md
    # sweep repaired; the regex must keep catching it without flagging
    # the clean characters themselves.
    assert check_docs._MOJIBAKE.search("→".encode().decode("cp1252"))
    assert check_docs._MOJIBAKE.search("—".encode().decode("cp1252"))
    assert check_docs._MOJIBAKE.search("�")
    assert not check_docs._MOJIBAKE.search("plain text → arrow — dash")


def test_heading_slugs_follow_github_rules():
    slugs = check_docs._heading_slugs(
        "# Launch / sync\n"
        "## `code` *emph* heading\n"
        "## Repeat\n"
        "```\n# not a heading\n```\n"
        "## Repeat\n"
    )
    assert slugs == {"launch--sync", "code-emph-heading", "repeat", "repeat-1"}


def test_no_tracked_bytecode():
    assert check_docs.check_no_tracked_bytecode() == []


def test_every_emitted_metric_has_a_catalog_row():
    assert check_docs.check_metric_catalog() == []


def test_metric_catalog_scan_finds_literals_and_fstrings():
    # the check would pass vacuously if the scan stopped seeing the
    # registry calls or the catalog rows; pin a known name of each form.
    emitted = check_docs.emitted_metric_names()
    assert "sim.cells_executed" in emitted
    assert "service.http_*" in emitted
    assert "stage.*.wall_seconds" in emitted
    patterns = check_docs.catalog_metric_patterns(
        (check_docs.REPO / check_docs.CATALOG_DOC).read_text("utf-8")
    )
    assert {"sim.cells_executed", "stage.*.wall_seconds",
            "resilience.retries.*"} <= patterns


def test_observability_examples_are_extractable():
    # the CI job would silently check nothing if the fence markers or
    # command prefixes drifted — pin that extraction finds them.
    doc = check_docs.REPO / "docs" / "OBSERVABILITY.md"
    commands = check_docs.extract_bash_commands(doc.read_text("utf-8"))
    assert any(c.startswith("gpu-topdown analyze") for c in commands)
    assert any(c.startswith("gpu-topdown profile-self") for c in commands)
    # continuation lines must have been joined into one command.
    assert all("\\" not in c for c in commands)
