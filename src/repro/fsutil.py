"""Small filesystem durability helpers (stdlib-only, dependency-free).

This is the one module under ``src/`` that renames or fsyncs a file.
Its users:

* :func:`atomic_write_text` / :func:`atomic_write_json` — result-cache
  entries and the store's size index (:mod:`repro.sim.result_cache`),
  service result documents and the port file (:mod:`repro.service`),
  persisted specializer source (:mod:`repro.sim.specialize`) and
  metric exports (:mod:`repro.obs.metrics`);
* :class:`JsonlJournal` — the checkpoint/resume journal
  (:class:`repro.resilience.checkpoint.RunJournal`) and the service
  job journal (:class:`repro.service.journal.ServiceJournal`).

The atomic-rename protocol guarantees *crash* consistency: a reader
sees either the old file or the new one, never a torn write.  It does
**not** by itself guarantee *power-loss* durability — on most
filesystems the rename itself lives in the parent directory's metadata
and is only durable once that directory has been fsynced.  Durable
writes therefore call :func:`fsync_dir` on the parent after the
rename.

This module sits below every other ``repro`` package (it imports only
the stdlib), so the cache, the resilience journals and the service
layer can all share it without import cycles.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator


def fsync_dir(path: str | os.PathLike) -> None:
    """Flush directory metadata (new names after an atomic rename).

    Best-effort: platforms/filesystems that cannot open a directory for
    reading (some network mounts, Windows) silently skip — the rename
    is still crash-consistent, just not guaranteed power-loss durable.
    """
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_text(
    path: str | os.PathLike,
    text: str,
    *,
    durable: bool = True,
) -> None:
    """Write ``text`` to ``path`` via temp file + atomic rename.

    With ``durable=True`` (the default) the data is fsynced before the
    rename and the parent directory after it, so the new content
    survives power loss, not just a process crash.  If the write or
    the rename raises, the temp file is removed and ``path`` keeps its
    previous content (or stays absent).
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            if durable:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if durable:
        fsync_dir(path.parent)


def atomic_write_json(
    path: str | os.PathLike,
    doc: Any,
    *,
    durable: bool = True,
) -> None:
    """Canonical-JSON variant of :func:`atomic_write_text`."""
    atomic_write_text(
        path,
        json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n",
        durable=durable,
    )


def _line(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True) + "\n"


def _parse(line: str) -> dict | None:
    try:
        doc = json.loads(line)
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


class JsonlJournal:
    """Append-only JSONL file whose first line pins its layout.

    * the ``header`` dict is the first line; a file whose first line is
      missing, torn or not equal to ``header`` holds no records (a
      journal from another layout is ignored, never misread);
    * :meth:`records` yields the lines after the header up to the first
      one that is not a JSON object — a torn tail (writer killed
      mid-append) invalidates exactly the torn line and what follows;
    * :meth:`rewrite` replaces the file with the header plus the
      caller's validated records (durable atomic write) and opens it
      for appending, so a torn tail can never corrupt a later append;
    * :meth:`append` writes one line and flushes **and fsyncs** it
      before returning.  The first append on a journal not yet open
      first calls ``rewrite(compacted())``: ``compacted`` returns the
      owner's validated state as records (nothing, by default).

    Every line is ``json.dumps(doc, sort_keys=True) + "\\n"``.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        header: dict,
        compacted: Callable[[], Iterable[dict]] = tuple,
    ) -> None:
        self.path = Path(path)
        self.header = header
        self._compacted = compacted
        self._fh = None

    def records(self) -> Iterator[dict]:
        try:
            lines = self.path.read_text().splitlines()
        except (OSError, UnicodeDecodeError):
            return
        if not lines or _parse(lines[0]) != self.header:
            return
        for line in lines[1:]:
            doc = _parse(line)
            if doc is None:
                return
            yield doc

    def rewrite(self, records: Iterable[dict]) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        text = _line(self.header) + "".join(_line(doc) for doc in records)
        atomic_write_text(self.path, text, durable=True)
        self._fh = open(self.path, "a", encoding="utf-8")

    def append(self, doc: dict) -> None:
        if self._fh is None:
            self.rewrite(self._compacted())
        fh = self._fh
        fh.write(_line(doc))
        fh.flush()
        os.fsync(fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


__all__ = ["JsonlJournal", "atomic_write_json", "atomic_write_text",
           "fsync_dir"]
