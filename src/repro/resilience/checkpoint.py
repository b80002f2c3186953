"""Checkpoint/resume journal for long multi-cell runs.

``generate_all`` regenerates the whole artifact bundle — minutes of
simulation.  A :class:`RunJournal` records each completed cell (one
experiment stage and the files it wrote) in an append-only JSONL file
inside the output directory (a :class:`repro.fsutil.JsonlJournal`),
flushed and fsynced per entry, so a run
killed at any instant can be relaunched with ``--resume`` and restart
from the first incomplete cell.

Safety properties:

* the journal header pins the run parameters (seed, invocation counts,
  schema); a ``--resume`` against different parameters starts over
  rather than mixing artifacts from two configurations;
* a cell is only trusted if its journal entry parsed cleanly *and*
  every file it claims to have written still exists — a torn final
  line (killed mid-append) or a deleted artifact simply re-runs the
  cell (the stale entry is dropped at load, so re-recording it is
  legal);
* opening a resumed journal for writing rewrites it from the
  validated in-memory state, so a torn tail can never corrupt records
  appended by a later resume;
* the journal is deleted on successful completion, so a finished
  bundle contains exactly the artifact files.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

from repro.errors import ResilienceError
from repro.fsutil import JsonlJournal

#: bump when the journal layout changes; old journals re-run everything.
JOURNAL_SCHEMA = "repro/run-journal@1"


class RunJournal:
    """Append-only journal of completed cells of one parameterized run."""

    def __init__(
        self,
        path: str | Path,
        params: Mapping[str, object],
        *,
        resume: bool = False,
    ) -> None:
        self.path = Path(path)
        self.params = dict(params)
        # The first record rewrites the journal from the validated
        # in-memory state: a torn tail left by a killed writer, or an
        # entry invalidated by a deleted artifact, never survives into
        # the file we append to.
        self._log = JsonlJournal(
            self.path,
            {"schema": JOURNAL_SCHEMA, "params": self.params},
            lambda: ({"cell": c, "files": names}
                     for c, names in self.completed.items()),
        )
        #: cell name -> file names written by that cell.
        self.completed: dict[str, list[str]] = {}
        #: cells recorded by *this* process (double-record guard; cells
        #: loaded from a previous run may legitimately be re-recorded).
        self._recorded: set[str] = set()
        if resume:
            self._load()

    # -- loading ----------------------------------------------------------
    def _load(self) -> None:
        root = self.path.parent
        for entry in self._log.records():
            files = entry.get("files", [])
            if "cell" not in entry or not isinstance(files, list):
                break
            cell = str(entry["cell"])
            names = [str(f) for f in files]
            if all((root / name).exists() for name in names):
                self.completed[cell] = names
            else:
                # an artifact was deleted since the entry was written:
                # drop the entry entirely so the cell re-runs *and*
                # record() accepts it again on this resume.
                self.completed.pop(cell, None)

    # -- queries ----------------------------------------------------------
    def done(self, cell: str) -> bool:
        """Is ``cell`` recorded complete, with all its files present?"""
        files = self.completed.get(cell)
        if files is None:
            return False
        root = self.path.parent
        return all((root / name).exists() for name in files)

    def files_of(self, cell: str) -> list[str]:
        return list(self.completed.get(cell, []))

    # -- recording --------------------------------------------------------
    def record(self, cell: str, files: list[str]) -> None:
        """Mark ``cell`` complete (durable before this returns).

        Re-recording a cell loaded from a previous run is legal (the
        new entry supersedes it — last wins on the next load); only a
        cell recorded twice by the *same* process is a caller bug.
        """
        if cell in self._recorded:
            raise ResilienceError(f"cell {cell!r} recorded twice")
        self._log.append({"cell": cell, "files": files})
        self.completed[cell] = list(files)
        self._recorded.add(cell)
        from repro.obs.runtime import active_obs

        active_obs().tracer.instant("journal.record", cat="resilience",
                                    cell=cell, files=len(files))

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        self._log.close()

    def complete(self) -> None:
        """The run finished: drop the journal."""
        self.close()
        try:
            self.path.unlink()
        except OSError:
            pass


__all__ = ["JOURNAL_SCHEMA", "RunJournal"]
