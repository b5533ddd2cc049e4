"""Wire protocol for the campaign service: JSON lines over a stream.

One connection carries one request and its response stream.  The
client sends a single JSON object on one line; the server answers with
a sequence of JSON-line *events* and closes the connection when the
request is finished.  Everything is UTF-8 JSON — no framing beyond
newlines, no binary, so any language (or ``nc``) can speak it.

Requests (all carry ``{"schema": PROTOCOL_SCHEMA, "op": ...}``):

``submit``
    ``{"op": "submit", "tenant": str, "spec": {campaign-spec dict},
    "return_payloads": bool, "priority": int}`` — expand the spec into
    cells and run them through the shared store.  The response stream
    is one ``accepted`` event, one ``cell`` event per cell **in
    deterministic spec order, emitted as each cell finishes**
    (incremental results), and one terminal ``done`` event.
    ``priority`` (protocol v2, optional, default 0) biases the
    fair-share scheduler: higher runs sooner within a tenant's share.

``resume``
    ``{"op": "resume", "job_id": str, "after_seq": int}`` (protocol
    v3) — re-attach to a job's event stream after a dropped
    connection or a daemon restart.  The daemon replays every buffered
    event with ``seq > after_seq`` and then continues live until
    ``done``.  An unknown ``job_id`` (never accepted, retired from
    history, or lost to a torn journal tail) gets a terminal ``error``
    event with code ``unknown_job``.

``status``
    One ``status`` event: service counters, store size/stats, tenant
    usage, queue depth, recovery/journal state.

``shutdown``
    One ``bye`` event, then the daemon drains its queue and exits
    (same path as SIGTERM).

**Event sequencing (protocol v3).**  Every event a job streams carries
a job-scoped ``seq``: ``accepted`` is ``seq 0``, the cells are ``seq
1..N`` (each also carries ``index``, its position in spec order, and
``of``, the cell count), and ``done`` is ``seq N+1``.  Within one job
the stream — across any number of drops and resumes — is strictly
increasing and gapless in ``seq``, which is what makes client-side
resume exact: replay everything after the last seq you saw, nothing
is duplicated, nothing is missing.  v1/v2 requests are still accepted
(they simply never send ``resume``); their events carry the v3 fields.

Error handling: any malformed request, unknown spec, or quota
rejection produces a single terminal ``error`` event (with a ``code``
for machine handling) — the daemon itself never dies on bad input.
A request line larger than :data:`MAX_LINE_BYTES` is rejected the same
way (code ``protocol``) instead of stalling the reader.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Union

__all__ = [
    "PROTOCOL_SCHEMA",
    "DEFAULT_PRIORITY",
    "MAX_LINE_BYTES",
    "OP_SUBMIT",
    "OP_RESUME",
    "OP_STATUS",
    "OP_SHUTDOWN",
    "OPS",
    "EVENT_ACCEPTED",
    "EVENT_CELL",
    "EVENT_DONE",
    "EVENT_ERROR",
    "EVENT_STATUS",
    "EVENT_BYE",
    "ProtocolError",
    "encode_line",
    "decode_line",
    "submit_request",
    "resume_request",
    "status_request",
    "shutdown_request",
    "validate_request",
]

#: Version tag every request and event carries; a format change bumps
#: it and old clients get a clean ``error`` event instead of garbage.
#: v3 added per-job event sequence numbers and the ``resume`` op; it is
#: the only request schema the server accepts.
PROTOCOL_SCHEMA = "repro.service/3"

#: Default submit priority (higher runs sooner within a tenant's share).
DEFAULT_PRIORITY = 0

#: Hard per-line size cap (requests *and* events).  Generous — specs
#: are small and payloads stream server->client — but bounded, so one
#: hostile line can neither exhaust memory nor stall the read loop.
MAX_LINE_BYTES = 8 << 20

OP_SUBMIT = "submit"
OP_RESUME = "resume"
OP_STATUS = "status"
OP_SHUTDOWN = "shutdown"
OPS = (OP_SUBMIT, OP_RESUME, OP_STATUS, OP_SHUTDOWN)

EVENT_ACCEPTED = "accepted"
EVENT_CELL = "cell"
EVENT_DONE = "done"
EVENT_ERROR = "error"
EVENT_STATUS = "status"
EVENT_BYE = "bye"

#: Default tenant for clients that do not identify themselves.
DEFAULT_TENANT = "default"


class ProtocolError(Exception):
    """A message that cannot be parsed or fails schema validation."""


def encode_line(message: Dict[str, Any]) -> bytes:
    """One message → one UTF-8 JSON line (canonical key order)."""
    try:
        text = json.dumps(message, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"message is not JSON-serializable: {exc}") from exc
    return text.encode("utf-8") + b"\n"


def decode_line(line: Union[str, bytes]) -> Dict[str, Any]:
    """One received line → message dict; raises :class:`ProtocolError`."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"message is not UTF-8: {exc}") from exc
    try:
        data = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"message is not JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ProtocolError(
            f"message must be a JSON object, got {type(data).__name__}"
        )
    return data


# ----------------------------------------------------------------------
# Request constructors (what the client library sends)
# ----------------------------------------------------------------------
def submit_request(
    spec: Dict[str, Any],
    tenant: str = DEFAULT_TENANT,
    return_payloads: bool = False,
    priority: int = DEFAULT_PRIORITY,
) -> Dict[str, Any]:
    """A ``submit`` request for one campaign-spec dict."""
    return {
        "schema": PROTOCOL_SCHEMA,
        "op": OP_SUBMIT,
        "tenant": tenant,
        "spec": spec,
        "return_payloads": bool(return_payloads),
        "priority": int(priority),
    }


def resume_request(job_id: str, after_seq: int = -1) -> Dict[str, Any]:
    """A ``resume`` request: replay ``job_id`` events after ``after_seq``."""
    return {
        "schema": PROTOCOL_SCHEMA,
        "op": OP_RESUME,
        "job_id": job_id,
        "after_seq": int(after_seq),
    }


def status_request() -> Dict[str, Any]:
    """A ``status`` request."""
    return {"schema": PROTOCOL_SCHEMA, "op": OP_STATUS}


def shutdown_request() -> Dict[str, Any]:
    """A ``shutdown`` request."""
    return {"schema": PROTOCOL_SCHEMA, "op": OP_SHUTDOWN}


# ----------------------------------------------------------------------
# Server-side request validation
# ----------------------------------------------------------------------
def validate_request(data: Dict[str, Any]) -> Dict[str, Any]:
    """Check schema tag, op, and op-specific fields; raises on junk."""
    schema = data.get("schema")
    if schema != PROTOCOL_SCHEMA:
        raise ProtocolError(
            f"unknown protocol schema {schema!r} (expected "
            f"{PROTOCOL_SCHEMA!r})"
        )
    op = data.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; available: {list(OPS)}")
    if op == OP_SUBMIT:
        if not isinstance(data.get("spec"), dict):
            raise ProtocolError("submit requires a 'spec' object")
        tenant = data.get("tenant", DEFAULT_TENANT)
        if not isinstance(tenant, str) or not tenant:
            raise ProtocolError(f"tenant must be a non-empty string, got {tenant!r}")
        priority = data.get("priority", DEFAULT_PRIORITY)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise ProtocolError(
                f"priority must be an integer, got {priority!r}"
            )
    elif op == OP_RESUME:
        job_id = data.get("job_id")
        if not isinstance(job_id, str) or not job_id:
            raise ProtocolError(
                f"resume requires a non-empty 'job_id' string, got {job_id!r}"
            )
        after_seq = data.get("after_seq", -1)
        if (
            not isinstance(after_seq, int)
            or isinstance(after_seq, bool)
            or after_seq < -1
        ):
            raise ProtocolError(
                f"after_seq must be an integer >= -1, got {after_seq!r}"
            )
    return data
