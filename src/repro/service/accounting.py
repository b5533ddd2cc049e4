"""Persistent per-tenant accounting: quotas that survive restarts.

PR 8's byte quotas lived in a daemon-local dict, so a SIGTERM (deploy,
host reboot) reset every tenant to zero — a tenant at its quota could
simply wait for the next restart.  :class:`TenantLedger` journals
every charge to ``<store>/tenants.jsonl`` and replays the journal on
daemon start, so usage picks up exactly where the previous daemon left
off.

Journal lines::

    {"op": "charge", "tenant": str, "bytes": int}
    {"op": "snapshot", "tenants": {tenant: bytes, ...}}

The file is a :class:`repro.journal.Journal`: rotation compacts to one
``snapshot`` line with the full current state, so disk use stays
bounded at ~2x ``max_bytes``; replay applies the last snapshot and
every charge after it.  A torn line is skipped and counted
(``service.ledger.torn``, :attr:`TenantLedger.torn_lines`); an
unreadable journal raises :class:`repro.journal.JournalError` (``serve``
exits 3) rather than silently resetting every quota to 0.  Write
failures degrade quotas to session-local accounting; they never fail
the request.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Union

from .. import telemetry
from ..journal import Journal

__all__ = ["TenantLedger", "TENANTS_JOURNAL"]

#: Journal filename under the store root.
TENANTS_JOURNAL = "tenants.jsonl"


def _is_amount(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class TenantLedger:
    """Durable tenant -> charged-bytes map backed by a JSONL journal."""

    def __init__(self, root: Union[str, Path],
                 max_bytes: int = 1 << 20) -> None:
        self.root = Path(root)
        self.path = self.root / TENANTS_JOURNAL
        self.tenant_bytes: Dict[str, int] = {}
        self.journal = Journal(
            self.path, "service.ledger", max_bytes, snapshot=self._snapshot
        )
        for entry in self.journal.replay():
            op = entry.get("op")
            if op == "snapshot" and isinstance(entry.get("tenants"), dict):
                self.tenant_bytes = {
                    str(tenant): value
                    for tenant, value in entry["tenants"].items()
                    if _is_amount(value)
                }
            elif op == "charge":
                tenant = entry.get("tenant")
                amount = entry.get("bytes")
                if isinstance(tenant, str) and _is_amount(amount):
                    self.tenant_bytes[tenant] = self.usage(tenant) + amount
        if self.tenant_bytes:
            telemetry.incr("service.ledger.resumed")

    @property
    def torn_lines(self) -> int:
        """Unparseable journal lines skipped during replay (torn tail)."""
        return self.journal.torn_lines

    def _snapshot(self) -> Dict[str, object]:
        return {"op": "snapshot", "tenants": dict(self.tenant_bytes)}

    # -- accounting ----------------------------------------------------
    def usage(self, tenant: str) -> int:
        """Bytes charged to ``tenant`` so far (0 if unknown)."""
        return self.tenant_bytes.get(tenant, 0)

    def charge(self, tenant: str, amount: int) -> int:
        """Add ``amount`` bytes to a tenant; returns the new total.

        The journal line is appended *before* the in-memory update: a
        rotation snapshot taken during the append must capture the
        state without this charge, or replaying snapshot + charge line
        would double-count it.
        """
        self.journal.append(
            {"op": "charge", "tenant": tenant, "bytes": int(amount)}
        )
        total = self.tenant_bytes.get(tenant, 0) + int(amount)
        self.tenant_bytes[tenant] = total
        return total

    def snapshot(self) -> Dict[str, int]:
        """Copy of the full tenant -> bytes map (for status/manifest)."""
        return dict(self.tenant_bytes)
