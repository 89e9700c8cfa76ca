"""The serve daemon's wire protocol: newline-delimited JSON frames.

One connection carries a bidirectional stream of JSON objects, one per
line (NDJSON).  The shape is deliberately minimal — every frame is a flat
object with a protocol version, so clients in any language are a
``socket`` + ``json`` import away:

Client → server (a *request*)::

    {"v": 1, "id": "q1", "verb": "plan",
     "request": {"planner": "eblow", "case": "1T-1", "scale": 1.0},
     "events": true}

Server → client (*response frames*, all stamped with the request's ``id``
so concurrent requests on one connection demultiplex cleanly)::

    {"v": 1, "id": "q1", "frame": "ack", "job_id": "9f3c…", "state": "queued",
     "outcome": "computed"}
    {"v": 1, "id": "q1", "frame": "event", "event": {…PlanEvent…}}
    {"v": 1, "id": "q1", "frame": "result", "outcome": "computed",
     "result": {…JobResult.to_dict()…}}

Verbs (see ``docs/SERVING.md`` for the full schema):

==============  =============================================================
``plan``        one :class:`~repro.runtime.jobs.PlanJob` as ``to_dict`` gives
                it; streams optional ``event`` frames, ends with one
                ``result`` frame
``batch``       a list of plan requests; one ``result`` frame per request
                (stamped ``index``), ends with a ``done`` summary frame
``portfolio``   race several planner specs on one instance; ends with a
                ``result`` frame carrying the race outcome
``subscribe``   attach to a queued/running job's PlanEvent stream by
                ``job_id``; ``event`` frames until a terminal ``done``
``status``      one ``status`` frame with queue depths / pool health /
                store hit rate
``shutdown``    ``ack``, then the server drains and exits
==============  =============================================================

Terminal frames per request: ``result`` | ``done`` | ``error`` | ``status``
| ``ack`` (for ``shutdown``).  An ``error`` frame carries a stable ``code``
from :data:`ERROR_CODES` — ``queue_full`` and ``draining`` are the
admission-control rejections clients are expected to branch on.
"""

from __future__ import annotations

import json
from typing import Mapping

from repro.errors import ReproError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "VERBS",
    "FRAME_KINDS",
    "ERROR_CODES",
    "OUTCOMES",
    "ProtocolError",
    "encode_frame",
    "decode_frame",
    "request_frame",
    "response_frame",
    "error_frame",
]

#: Version stamp carried by every frame in both directions.
PROTOCOL_VERSION = 1

#: Hard bound on one frame's encoded size (inline 2D instances are the
#: largest legitimate payload; anything beyond this is a protocol error,
#: not a bigger buffer).
MAX_FRAME_BYTES = 32 * 1024 * 1024

VERBS = ("plan", "batch", "portfolio", "subscribe", "status", "shutdown")

FRAME_KINDS = ("ack", "event", "result", "done", "error", "status")

#: How a request was satisfied, also the ``outcome`` label of
#: ``serve_requests_total``: ``computed`` started a fresh execution,
#: ``coalesced`` attached to an identical in-flight job, ``store_hit``
#: was served straight from the result store, ``rejected`` hit admission
#: control, ``error`` failed before admission.
OUTCOMES = ("computed", "coalesced", "store_hit", "rejected", "error")

ERROR_CODES = (
    "bad_request",   # malformed verb payload / unknown planner / bad options
    "queue_full",    # the client's admission queue is at capacity
    "draining",      # server is shutting down and admits no new work
    "unknown_job",   # subscribe target is not queued or running
    "unknown_verb",  # verb not in VERBS
    "protocol",      # unparsable / oversized / versionless frame
    "internal",      # unexpected server-side failure
)


class ProtocolError(ReproError):
    """A frame violated the wire protocol (bad JSON, size, or version)."""


def encode_frame(payload: Mapping) -> bytes:
    """One frame as a newline-terminated JSON line (compact separators)."""
    line = json.dumps(dict(payload), separators=(",", ":"), default=str)
    data = line.encode("utf-8") + b"\n"
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(data)} bytes exceeds the {MAX_FRAME_BYTES}-byte bound"
        )
    return data


def decode_frame(line: bytes | str) -> dict:
    """Parse and validate one NDJSON line into a frame dict."""
    if isinstance(line, bytes):
        if len(line) > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame of {len(line)} bytes exceeds the {MAX_FRAME_BYTES}-byte bound"
            )
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"frame is not valid UTF-8: {exc}") from exc
    try:
        frame = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(frame, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(frame).__name__}")
    version = frame.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} (this side speaks {PROTOCOL_VERSION})"
        )
    return frame


def request_frame(request_id: str, verb: str, **payload) -> dict:
    """A client request frame (``verb`` is validated against :data:`VERBS`)."""
    if verb not in VERBS:
        raise ProtocolError(f"unknown verb {verb!r} (one of {VERBS})")
    return {"v": PROTOCOL_VERSION, "id": request_id, "verb": verb, **payload}


def response_frame(request_id: str | None, kind: str, **payload) -> dict:
    """A server response frame (``kind`` is validated against :data:`FRAME_KINDS`)."""
    if kind not in FRAME_KINDS:
        raise ProtocolError(f"unknown frame kind {kind!r} (one of {FRAME_KINDS})")
    return {"v": PROTOCOL_VERSION, "id": request_id, "frame": kind, **payload}


def error_frame(request_id: str | None, code: str, message: str) -> dict:
    """An ``error`` response frame with a stable machine-readable ``code``."""
    if code not in ERROR_CODES:
        code = "internal"
    return response_frame(request_id, "error", code=code, message=message)
