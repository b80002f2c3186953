#!/usr/bin/env python3
"""Documentation checks for CI and tests/test_docs.py.

Six checks, all stdlib-only:

1. **Links** — every relative markdown link and every backticked
   repo path (``docs/...``, ``src/...``, ``tests/...``, root ``*.md``)
   mentioned in the README and the docs pages must exist in the tree.
   External (``http...``) links are not fetched.
2. **Anchors** — ``#fragment`` parts of relative markdown links must
   name an actual heading (GitHub slug rules) in the target document,
   so section links cannot silently dangle after a heading edit.
3. **Encoding hygiene** — every tracked markdown file must decode as
   UTF-8 and must not contain mojibake artifacts (UTF-8 bytes
   misdecoded as cp1252 — the tell-tale "a-circumflex + punctuation"
   pairs — or the U+FFFD replacement character).
4. **Bytecode hygiene** — ``git ls-files`` must track no ``*.pyc`` /
   ``__pycache__`` entries (they were once committed by accident).
5. **Metric catalog** — every metric name passed to a metrics
   registry (``metrics.inc`` / ``observe`` / ``set_gauge``) under
   ``src/`` as a string literal or f-string has a row in the
   ``docs/OBSERVABILITY.md`` catalog (``<...>`` placeholders in a row
   match any text; an f-string's fields must line up with them).
6. **Runnable examples** (``--run-examples``) — the ``bash`` fenced
   blocks of the docs in ``EXAMPLE_DOCS`` are executed: every
   ``gpu-topdown ...`` / ``python -m repro...`` line runs in a scratch
   directory, so the flagship docs' examples cannot rot.  Restrict to
   one document with ``--doc``.

Exit code 0 = all checks pass; 1 = findings (listed on stderr).
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: documents whose links/paths are checked.
DOC_FILES = [
    "README.md",
    "CONTRIBUTING.md",
    "CHANGELOG.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    *sorted(p.relative_to(REPO).as_posix() for p in REPO.glob("docs/*.md")),
]

#: a backticked token is treated as a repo path only under these roots
#: (or when it is a root-level markdown file) — keeps incidental code
#: like `out.json` or `run.csv` out of scope.
PATH_ROOTS = ("docs/", "src/", "tests/", "benchmarks/", "examples/",
              "tools/", "artifacts/", ".github/")

MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
BACKTICK = re.compile(r"`([A-Za-z0-9_.\-/]+)`")


def iter_path_refs(text: str):
    """Yield repo paths referenced by a markdown document."""
    for match in MD_LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target.split("#")[0]
    for match in BACKTICK.finditer(text):
        token = match.group(1)
        if token.startswith(PATH_ROOTS) or (
            "/" not in token and token.endswith(".md")
        ):
            yield token


def check_links() -> list[str]:
    problems = []
    for doc in DOC_FILES:
        path = REPO / doc
        if not path.exists():
            problems.append(f"{doc}: listed for checking but missing")
            continue
        base = path.parent
        for ref in iter_path_refs(path.read_text(encoding="utf-8")):
            # pages may reference paths repo-relative (the dominant
            # idiom here) or relative to their own directory.
            if not ((REPO / ref).exists() or (base / ref).exists()):
                problems.append(f"{doc}: broken reference '{ref}'")
    return problems


#: UTF-8 text misdecoded as cp1252 puts an a-circumflex / A-tilde /
#: A-circumflex before a spurious symbol or C1-range character; any
#: such pair (or a bare replacement character) marks mojibake.
_MOJIBAKE = re.compile(
    "[ÂÃâ]"
    "[-¿ŒœŠšŽžƒ"
    "ˆ˜–-›€™]"
    "|�"
)


def _tracked_markdown() -> list[str]:
    out = subprocess.run(
        ["git", "ls-files", "*.md", "**/*.md"],
        cwd=REPO, capture_output=True, text=True, check=True,
    ).stdout.split()
    return sorted(set(out))


def check_encoding() -> list[str]:
    problems = []
    for doc in _tracked_markdown():
        raw = (REPO / doc).read_bytes()
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            problems.append(f"{doc}: not valid UTF-8 ({exc})")
            continue
        for i, line in enumerate(text.splitlines(), 1):
            match = _MOJIBAKE.search(line)
            if match:
                problems.append(
                    f"{doc}:{i}: mojibake artifact "
                    f"{match.group(0)!r} — re-encode the original "
                    f"UTF-8 text"
                )
    return problems


def _heading_slugs(text: str) -> set[str]:
    """GitHub-style anchor slugs for a markdown document's headings."""
    slugs: set[str] = set()
    in_fence = False
    for line in text.splitlines():
        if line.strip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence or not re.match(r"#{1,6}\s", line):
            continue
        heading = line.lstrip("#").strip()
        heading = re.sub(r"[`*_]", "", heading)
        slug = re.sub(r"[^\w\- ]", "", heading.lower())
        slug = slug.replace(" ", "-")
        base = slug
        n = 1
        while slug in slugs:  # duplicate headings get -1, -2, ...
            slug = f"{base}-{n}"
            n += 1
        slugs.add(slug)
    return slugs


def check_anchors() -> list[str]:
    problems = []
    for doc in DOC_FILES:
        path = REPO / doc
        if not path.exists():
            continue
        text = path.read_text(encoding="utf-8")
        own_slugs = _heading_slugs(text)
        for match in MD_LINK.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            if "#" not in target:
                continue
            ref, frag = target.split("#", 1)
            if not frag:
                continue
            if not ref:
                slugs, where = own_slugs, doc
            else:
                for candidate in (REPO / ref, path.parent / ref):
                    if candidate.is_file():
                        slugs = _heading_slugs(
                            candidate.read_text(encoding="utf-8"))
                        where = ref
                        break
                else:
                    continue  # broken path: check_links reports it
            if frag.lower() not in slugs:
                problems.append(
                    f"{doc}: dangling anchor '#{frag}' "
                    f"(no such heading in {where})"
                )
    return problems


def check_no_tracked_bytecode() -> list[str]:
    out = subprocess.run(
        ["git", "ls-files", "*.pyc", "**/__pycache__/*"],
        cwd=REPO, capture_output=True, text=True, check=True,
    ).stdout.split()
    return [f"tracked bytecode: {name}" for name in out]


#: metrics-registry methods whose first argument is a metric name.
METRIC_CALLS = ("inc", "observe", "set_gauge")
METRIC_KINDS = ("counter", "gauge", "histogram")
CATALOG_DOC = "docs/OBSERVABILITY.md"


def emitted_metric_names() -> dict[str, str]:
    """Metric names emitted under ``src/``, each mapped to its first
    call site.  An f-string's replacement fields become ``*``."""
    names: dict[str, str] = {}
    for path in sorted((REPO / "src").rglob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and node.args
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in METRIC_CALLS):
                continue
            recv = node.func.value
            if not (isinstance(recv, ast.Attribute) and recv.attr == "metrics"
                    or isinstance(recv, ast.Name) and recv.id == "metrics"):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                name = arg.value
            elif isinstance(arg, ast.JoinedStr):
                name = "".join(
                    part.value if isinstance(part, ast.Constant) else "*"
                    for part in arg.values
                )
            else:
                continue
            names.setdefault(
                name, f"{path.relative_to(REPO).as_posix()}:{node.lineno}"
            )
    return names


def catalog_metric_patterns(markdown: str) -> set[str]:
    """Metric names of the catalog table rows (``<...>`` as ``*``)."""
    patterns = set()
    for line in markdown.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) < 3 or cells[1] not in METRIC_KINDS:
            continue
        for token in re.findall(r"`([^`]+)`", cells[0]):
            patterns.add(re.sub(r"<[^>]*>", "*", token))
    return patterns


def check_metric_catalog() -> list[str]:
    patterns = catalog_metric_patterns(
        (REPO / CATALOG_DOC).read_text("utf-8")
    )
    return [
        f"{site}: metric {name!r} has no row in {CATALOG_DOC}"
        for name, site in sorted(emitted_metric_names().items())
        if not any(name == p or ("*" not in name
                                 and fnmatch.fnmatchcase(name, p))
                   for p in patterns)
    ]


def extract_bash_commands(markdown: str) -> list[str]:
    """The executable command lines of all ``bash`` fenced blocks,
    with ``\\``-continuations joined."""
    commands: list[str] = []
    in_bash = False
    pending = ""
    for line in markdown.splitlines():
        stripped = line.strip()
        if stripped.startswith("```"):
            in_bash = stripped == "```bash"
            continue
        if not in_bash:
            continue
        if pending:
            pending = pending[:-1].rstrip() + " " + stripped
        elif stripped.startswith(("gpu-topdown ", "python -m repro")):
            pending = stripped
        else:
            continue
        if pending.endswith("\\"):
            continue
        commands.append(pending)
        pending = ""
    return commands


#: docs whose bash examples are executed under ``--run-examples``.
EXAMPLE_DOCS = ["docs/OBSERVABILITY.md", "docs/SERVICE.md",
                "docs/TIMELINE.md"]


def run_examples(doc: str = "docs/OBSERVABILITY.md") -> list[str]:
    problems = []
    commands = extract_bash_commands((REPO / doc).read_text("utf-8"))
    if not commands:
        return [f"{doc}: no runnable bash examples found"]
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        f"{REPO / 'src'}{os.pathsep}{env['PYTHONPATH']}"
        if env.get("PYTHONPATH") else str(REPO / "src")
    )
    with tempfile.TemporaryDirectory(prefix="repro-docs-") as scratch:
        for command in commands:
            if command.startswith("gpu-topdown "):
                rewritten = (f"{sys.executable} -m repro.cli "
                             + command[len("gpu-topdown "):])
            else:  # python -m repro...
                rewritten = sys.executable + command[len("python"):]
            print(f"  $ {command}", flush=True)
            proc = subprocess.run(
                rewritten.split(), cwd=scratch, capture_output=True,
                text=True, timeout=600, env=env,
            )
            # 3 = completed degraded: still a working example.
            if proc.returncode not in (0, 3):
                problems.append(
                    f"{doc}: example failed (exit {proc.returncode}): "
                    f"{command}\n{proc.stderr.strip()[-500:]}"
                )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run-examples", action="store_true",
                        help="also execute the bash examples of "
                             f"{', '.join(EXAMPLE_DOCS)} (slow)")
    parser.add_argument("--doc", default=None, metavar="PATH",
                        help="restrict --run-examples to one of "
                             "the EXAMPLE_DOCS")
    args = parser.parse_args(argv)
    problems = (check_links() + check_anchors() + check_encoding()
                + check_no_tracked_bytecode() + check_metric_catalog())
    if args.run_examples:
        docs = [args.doc] if args.doc else EXAMPLE_DOCS
        for doc in docs:
            if doc not in EXAMPLE_DOCS:
                problems.append(
                    f"{doc}: not in EXAMPLE_DOCS ({', '.join(EXAMPLE_DOCS)})"
                )
                continue
            problems += run_examples(doc)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if not problems:
        print("docs check: all good")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
