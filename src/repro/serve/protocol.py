"""The serve wire protocol: newline-delimited JSON frames over TCP.

Both directions speak the same transport: one strict-JSON object per
``\\n``-terminated line (``allow_nan=False`` — non-finite floats never
appear because record payloads travel as pre-serialized JSONL *lines*,
not re-encoded objects).  Frames are small; the per-line byte limit is
a server policy (oversized submissions are rejected with an error
frame, not a dropped connection).

Client → server operations (``op``):

========  ============================================================
op        fields
========  ============================================================
submit    ``request`` — a :func:`repro.api.wire.request_to_wire` dict
resume    ``job`` (id), ``last_record`` (count already received)
status    —
cancel    ``job`` (id)
ping      —
========  ============================================================

Server → client frames (``frame``):

========  ============================================================
frame     fields
========  ============================================================
hello     ``protocol``, ``workloads`` (servable workload names)
job       ``job`` (id), ``state``, ``dedup`` (``new``/``inflight``/
          ``replay``/``restart``, or ``resume`` for the resume op)
record    ``job``, ``seq`` (1-based), ``line`` (verbatim JSONL line)
end       ``job``, ``state`` (``done``), ``total``/``cached``/
          ``computed`` cache statistics
error     ``code``, ``message``, optionally ``job``
status    counters snapshot, incl. pool occupancy — ``workers``,
          ``busy_slots`` (see ``docs/serving.md``)
cancelled ``job``
pong      —
========  ============================================================

Error codes are stable strings: ``bad-frame`` (not JSON / not a
mapping), ``oversized`` (line over the server limit), ``bad-request``
(frame parsed but the request is invalid), ``unsupported-workload``,
``busy`` (backpressure rejection — the 429 of this protocol),
``unknown-job``, ``bad-offset``, ``job-failed``, ``job-cancelled``.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from typing import Any

#: Protocol version announced in the hello frame and checked by clients.
PROTOCOL_VERSION = 1

#: Default per-line byte budget for client frames (server policy).
DEFAULT_LINE_LIMIT = 1_048_576

#: Client operations the server understands.
CLIENT_OPS = ("submit", "resume", "status", "cancel", "ping")

#: Stable error codes (see the module docstring).
ERROR_CODES = (
    "bad-frame",
    "oversized",
    "bad-request",
    "unsupported-workload",
    "busy",
    "unknown-job",
    "bad-offset",
    "job-failed",
    "job-cancelled",
)


class ProtocolError(ValueError):
    """A malformed or illegal frame, carrying its stable error code."""

    def __init__(self, code: str, message: str) -> None:
        assert code in ERROR_CODES, code
        super().__init__(message)
        self.code = code

    def frame(self, **extra: Any) -> dict[str, Any]:
        """The error frame reporting this failure."""
        return {
            "frame": "error",
            "code": self.code,
            "message": str(self),
            **extra,
        }


#: The encoder of :func:`encode_frame`: one instance, not one per call
#: (``json.dumps`` with keywords builds a fresh encoder every time).
_FRAME_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False)


def encode_frame(frame: Mapping[str, Any]) -> bytes:
    """Serialize one frame to its wire line (``\\n`` included)."""
    return _FRAME_ENCODER.encode(frame).encode("utf-8") + b"\n"


def decode_frame(line: bytes, limit: int | None = None) -> dict[str, Any]:
    """Parse one received line into a frame mapping.

    Args:
        line: The raw line (trailing newline tolerated).
        limit: Optional byte budget; longer lines raise ``oversized``.

    Raises:
        ProtocolError: ``oversized`` or ``bad-frame``.
    """
    if limit is not None and len(line) > limit:
        raise ProtocolError(
            "oversized",
            f"frame of {len(line)} bytes exceeds the {limit}-byte limit",
        )
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(
            "bad-frame", f"frame is not valid JSON: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            "bad-frame",
            f"frame must be a JSON object, got {type(payload).__name__}",
        )
    return payload
