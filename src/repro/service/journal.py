"""Crash-recoverable job journal for the profiling service.

The daemon's source of truth for *which jobs exist and how far they
got* is an append-only JSONL journal in the state directory: a
:class:`repro.fsutil.JsonlJournal`, like the checkpoint journal
(:class:`repro.resilience.checkpoint.RunJournal`), so:

* a schema header pins the layout; a journal written by an
  incompatible daemon version is ignored rather than misread;
* every event line is flushed **and fsynced** before the operation it
  records is acknowledged — a ``submit`` is durable before the HTTP
  202/201 goes out, a ``done`` is durable only after the result file
  itself was durably written;
* a torn tail (daemon killed mid-append) invalidates exactly the torn
  line: replay stops there and the half-recorded event simply never
  happened;
* opening for writing rewrites the file from the validated replayed
  events (durable atomic rewrite, see :meth:`ServiceJournal._compacted`),
  so a torn tail can never corrupt events appended after a restart.

Event vocabulary (one JSON object per line after the header):

``{"event": "submit", "job": id, "tenant": t, "spec": {...}}``
    a job was admitted;
``{"event": "attempt", "job": id, "attempt": n, "error": "..."}``
    one execution attempt failed (keeps the poison budget honest
    across restarts — a crash-looping job cannot reset its count by
    crashing the daemon);
``{"event": "done", "job": id, "outcome": "done|failed|quarantined",
"error": ...}``
    the job reached a terminal state; for outcome ``done`` the result
    document already exists on disk.

Replay folds the event stream into per-job state: jobs with a
``submit`` but no ``done`` are *incomplete* and must be re-queued by
the restarted daemon; jobs with a ``done`` are served from the store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ServiceError
from repro.fsutil import JsonlJournal

#: bump when the event layout changes; old journals are not replayed.
SERVICE_JOURNAL_SCHEMA = "repro/service-journal@1"

#: attempt-failure messages kept per job during replay (bounded).
_MAX_FAILURES = 8


@dataclass
class ReplayedJob:
    """Folded journal state of one job after replay."""

    spec_doc: dict
    tenant: str
    attempts: int = 0
    outcome: str | None = None  # None ⇒ incomplete, must re-run
    error: str | None = None
    error_kind: str | None = None
    failures: list = field(default_factory=list)


class ServiceJournal:
    """Append-only, fsync-per-event journal of the job lifecycle."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        #: job id → folded state, in first-submission order (dicts
        #: preserve insertion order, so re-queueing after a restart
        #: follows the original submission order deterministically).
        self.jobs: dict[str, ReplayedJob] = {}
        # the first append rewrites from the validated replayed state,
        # so a torn tail left by a killed daemon never pollutes it.
        self._log = JsonlJournal(
            self.path, {"schema": SERVICE_JOURNAL_SCHEMA}, self._compacted
        )
        for event in self._log.records():
            if not self._apply(event):
                break  # inconsistent tail: the event never happened

    # -- replay -----------------------------------------------------------
    def _apply(self, event: dict) -> bool:
        """Fold one event into :attr:`jobs`; False stops the replay."""
        kind = event.get("event")
        job = event.get("job")
        if not isinstance(job, str):
            return False
        if kind == "submit":
            spec_doc = event.get("spec")
            if not isinstance(spec_doc, dict):
                return False
            self.jobs.setdefault(
                job,
                ReplayedJob(
                    spec_doc=spec_doc,
                    tenant=str(event.get("tenant", "default")),
                ),
            )
            return True
        state = self.jobs.get(job)
        if state is None:
            # an attempt/done for a job never submitted can only be a
            # torn/duplicated region: stop trusting the tail.
            return False
        if kind == "attempt":
            state.attempts = max(state.attempts, int(event.get("attempt", 0)))
            err = event.get("error")
            if err is not None:
                state.failures.append(str(err))
                del state.failures[:-_MAX_FAILURES]
            return True
        if kind == "done":
            outcome = event.get("outcome")
            if outcome not in ("done", "failed", "quarantined"):
                return False
            state.outcome = outcome
            state.error = event.get("error")
            state.error_kind = event.get("error_kind")
            return True
        return False

    # -- writing ----------------------------------------------------------
    def _compacted(self):
        """The replayed state as events: one submit per job, then its
        latest attempt and its outcome when it has them."""
        for job, state in self.jobs.items():
            yield {"event": "submit", "job": job, "tenant": state.tenant,
                   "spec": state.spec_doc}
            if state.attempts:
                yield {"event": "attempt", "job": job,
                       "attempt": state.attempts,
                       "error": state.failures[-1] if state.failures
                       else None}
            if state.outcome is not None:
                yield {"event": "done", "job": job,
                       "outcome": state.outcome, "error": state.error,
                       "error_kind": state.error_kind}

    def _append(self, doc: dict) -> None:
        self._log.append(doc)

    def record_submit(self, job: str, tenant: str, spec_doc: dict) -> None:
        """Durably record an admission (before it is acknowledged)."""
        if job in self.jobs:
            raise ServiceError(f"job {job!r} submitted twice to the journal")
        self._append(
            {"event": "submit", "job": job, "tenant": tenant,
             "spec": spec_doc}
        )
        self.jobs[job] = ReplayedJob(spec_doc=spec_doc, tenant=tenant)

    def record_attempt(self, job: str, attempt: int, error: str) -> None:
        """Durably record one failed execution attempt."""
        self._append(
            {"event": "attempt", "job": job, "attempt": attempt,
             "error": error}
        )
        state = self.jobs[job]
        state.attempts = max(state.attempts, attempt)
        state.failures.append(error)
        del state.failures[:-_MAX_FAILURES]

    def record_done(
        self,
        job: str,
        outcome: str,
        *,
        error: str | None = None,
        error_kind: str | None = None,
    ) -> None:
        """Durably record a terminal state (result already on disk)."""
        self._append(
            {"event": "done", "job": job, "outcome": outcome,
             "error": error, "error_kind": error_kind}
        )
        state = self.jobs[job]
        state.outcome = outcome
        state.error = error
        state.error_kind = error_kind

    # -- lifecycle --------------------------------------------------------
    def close(self) -> None:
        self._log.close()


__all__ = ["SERVICE_JOURNAL_SCHEMA", "ReplayedJob", "ServiceJournal"]
