"""Durable job journal: accepted work survives a daemon SIGKILL.

The daemon's crash-safety contract is *journal-before-ack*: a job's
full description (spec, tenant, priority) is appended to
``<store>/jobs.jsonl`` **before** the ``accepted`` event goes on the
wire.  A client that has seen an ack therefore holds a ``job_id`` the
next daemon can find: on start, :class:`JobJournal` replays the
journal, and every *open* job (an ``accepted`` line with no matching
``done``) is re-enqueued through the scheduler.  Re-running is cheap —
cells that completed before the crash are content-addressed store
hits, so recovery only pays for the work the crash actually lost.

Journal lines::

    {"op": "accepted", "n": int, "job": {job_id, tenant, priority,
                                         return_payloads, spec}}
    {"op": "done", "job_id": str}
    {"op": "snapshot", "next_job": int, "jobs": [open job records]}

The file work — append, atomic compacting rotation (the new file
opens with a ``snapshot`` of every open job plus the job-number
watermark), torn-line skipping (``service.journal.torn``) — is the
shared :class:`repro.journal.Journal`.  An unreadable journal raises
:class:`JobJournalError` (``serve`` exits 3); a failed write degrades
to session-local job tracking and never refuses traffic.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Union

from .. import telemetry
from ..journal import Journal, JournalError

__all__ = ["JobJournal", "JobJournalError", "JOBS_JOURNAL"]

#: Journal filename under the store root.
JOBS_JOURNAL = "jobs.jsonl"

#: Raised when a service journal exists but cannot be read.
JobJournalError = JournalError


def _number(value: Any) -> Optional[int]:
    """``value`` if it is a plain int (not a bool), else None."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    return None


def _valid_job(record: Any) -> Optional[Dict[str, Any]]:
    """A replayed job record, normalized — or None if malformed."""
    if not isinstance(record, dict):
        return None
    job_id = record.get("job_id")
    spec = record.get("spec")
    if not isinstance(job_id, str) or not job_id or not isinstance(spec, dict):
        return None
    tenant = record.get("tenant")
    return {
        "job_id": job_id,
        "tenant": tenant if isinstance(tenant, str) and tenant else "default",
        "priority": _number(record.get("priority")) or 0,
        "return_payloads": bool(record.get("return_payloads", False)),
        "spec": spec,
    }


class JobJournal:
    """Durable open-job set backed by a JSONL journal under the store."""

    def __init__(
        self,
        root: Union[str, Path],
        max_bytes: int = 1 << 20,
        enabled: bool = True,
        chaos: Optional[Any] = None,
    ) -> None:
        self.root = Path(root)
        self.path = self.root / JOBS_JOURNAL
        self.enabled = bool(enabled)
        self.chaos = chaos
        #: job_id -> normalized job record, in acceptance order.
        self.open_jobs: Dict[str, Dict[str, Any]] = {}
        #: First job number the new daemon lifetime may assign.
        self.next_job_number = 0
        self._append_seq = 0
        self.journal = Journal(
            self.path, "service.journal", max_bytes, snapshot=self._snapshot
        )
        if self.enabled:
            self._load()

    @property
    def torn_lines(self) -> int:
        """Torn journal lines skipped (or truncated) so far."""
        return self.journal.torn_lines

    @property
    def rotations(self) -> int:
        """Journal rotations this lifetime."""
        return self.journal.rotations

    # -- replay --------------------------------------------------------
    def _load(self) -> None:
        """Rebuild the open-job set from the newest journal on disk."""
        for entry in self.journal.replay():
            op = entry.get("op")
            if op == "accepted":
                job = _valid_job(entry.get("job"))
                if job is not None:
                    self.open_jobs[job["job_id"]] = job
                number = _number(entry.get("n"))
                if number is not None:
                    self.next_job_number = max(
                        self.next_job_number, number + 1
                    )
            elif op == "done":
                self.open_jobs.pop(entry.get("job_id"), None)
            elif op == "snapshot":
                jobs = entry.get("jobs")
                if isinstance(jobs, list):
                    valid = [_valid_job(record) for record in jobs]
                    self.open_jobs = {
                        job["job_id"]: job for job in valid if job is not None
                    }
                number = _number(entry.get("next_job"))
                if number is not None:
                    self.next_job_number = max(self.next_job_number, number)
        if self.open_jobs:
            telemetry.incr("service.journal.recovered", len(self.open_jobs))

    def _snapshot(self) -> Dict[str, Any]:
        return {
            "op": "snapshot",
            "next_job": self.next_job_number,
            "jobs": list(self.open_jobs.values()),
        }

    # -- recording -----------------------------------------------------
    def record_accepted(
        self,
        job_id: str,
        number: int,
        tenant: str,
        priority: int,
        return_payloads: bool,
        spec: Dict[str, Any],
    ) -> None:
        """Journal one accepted job — call *before* acking the client."""
        record = {
            "job_id": job_id,
            "tenant": tenant,
            "priority": int(priority),
            "return_payloads": bool(return_payloads),
            "spec": spec,
        }
        self.open_jobs[job_id] = record
        self.next_job_number = max(self.next_job_number, number + 1)
        self._append({"op": "accepted", "n": int(number), "job": record})

    def record_done(self, job_id: str) -> None:
        """Journal one finished (or abandoned) job."""
        self.open_jobs.pop(job_id, None)
        self._append({"op": "done", "job_id": job_id})

    def stats_dict(self) -> Dict[str, int]:
        """JSON-safe counters for status events and the manifest."""
        return {
            "enabled": int(self.enabled),
            "open": len(self.open_jobs),
            "torn_lines": self.journal.torn_lines,
            "rotations": self.journal.rotations,
            "write_failures": self.journal.write_failures,
        }

    def _append(self, entry: Dict[str, Any]) -> None:
        """Append one line; the chaos harness may then tear it."""
        if not self.enabled or not self.journal.append(entry):
            return
        self._append_seq += 1
        if self.chaos is not None:
            self.chaos.maybe_corrupt_journal(self.path, self._append_seq)
