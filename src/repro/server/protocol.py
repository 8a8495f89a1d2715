"""The daemon's wire protocol: length-prefixed JSON frames.

A frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON encoding one object.  Length-prefixing (rather than
newline-delimiting) makes the framing robust against payloads containing
anything at all, lets the reader pre-validate the size *before*
allocating, and keeps partial reads detectable: a connection that dies
mid-frame yields :class:`ProtocolError` / EOF, never a silently
truncated request.

Both async (daemon-side) and blocking-socket (client-side) frame I/O
live here so the two ends can never drift apart.

Requests and responses
----------------------
Request::

    {"id": 7, "verb": "query", "tenant": "docs",
     "deadline_ms": 250, ...verb fields,
     "trace": {"trace_id": "…", "span_id": "…", "sampled": true}}

The optional ``trace`` object carries the distributed-tracing context
(:class:`repro.obs.context.TraceContext`): the daemon adopts the caller's
``trace_id`` so client-side and server-side spans stitch into one tree,
and an explicit ``sampled`` flag overrides the daemon's head-based
sampling rate.  A malformed ``trace`` object is ignored, never an error.
The ``introspect`` control verb exports the daemon's bounded trace
buffer, slow-query log and per-tenant SLO windows
(``what`` ∈ ``traces``/``slow_log``/``events``/``slo``/``top``).

Response (exactly one per non-dropped request)::

    {"id": 7, "ok": true,  "result": {...}}
    {"id": 7, "ok": false, "error": {"code": "overloaded",
     "message": "...", "retry_after_ms": 50, "detail": {...}}}

Error codes are the closed set below — clients dispatch on ``code``,
never on message text.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Any, Dict, Optional, Tuple

from repro.core.errors import ReproError

#: Frames larger than this are refused outright (request and response).
MAX_FRAME_BYTES = 1 << 20

_HEADER = struct.Struct("!I")

#: One compact encoder for every frame: ``json.dumps`` with non-default
#: separators would build a fresh ``JSONEncoder`` per call.
_ENCODER = json.JSONEncoder(separators=(",", ":"))

# ------------------------------------------------------------- error codes
E_BAD_REQUEST = "bad_request"  # malformed verb/fields/values
E_UNKNOWN_TENANT = "unknown_tenant"  # tenant name not registered
E_CONFLICT = "conflict"  # duplicate insert id
E_NOT_FOUND = "not_found"  # delete of an unknown id
E_OVERLOADED = "overloaded"  # shed by admission control
E_DEADLINE = "deadline_exceeded"  # deadline expired anywhere en route
E_UNAVAILABLE = "unavailable"  # every relevant shard/replica refused
E_SHUTTING_DOWN = "shutting_down"  # daemon is draining
E_INTERNAL = "internal"  # unexpected server-side failure

ERROR_CODES = frozenset(
    {
        E_BAD_REQUEST,
        E_UNKNOWN_TENANT,
        E_CONFLICT,
        E_NOT_FOUND,
        E_OVERLOADED,
        E_DEADLINE,
        E_UNAVAILABLE,
        E_SHUTTING_DOWN,
        E_INTERNAL,
    }
)


class ProtocolError(ReproError):
    """The byte stream violated the framing or JSON contract."""


# ------------------------------------------------------------ frame codecs
def encode_frame(payload: Dict[str, Any]) -> bytes:
    """One framed message; raises :class:`ProtocolError` when oversized."""
    body = _ENCODER.encode(payload).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return _HEADER.pack(len(body)) + body


def decode_payload(body: bytes) -> Dict[str, Any]:
    """Parse a frame body; the payload must be a JSON object."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed frame payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    return payload


# ------------------------------------------------------------- async (daemon)
async def read_frame(
    reader: asyncio.StreamReader, max_bytes: int = MAX_FRAME_BYTES
) -> Optional[Tuple[Dict[str, Any], int]]:
    """One ``(request, framed_bytes)`` from the stream; ``None`` on clean EOF."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between frames
        raise ProtocolError("connection closed mid-header") from exc
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise ProtocolError(
            f"declared frame of {length} bytes exceeds the {max_bytes}-byte limit"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return decode_payload(body), _HEADER.size + length


# --------------------------------------------------------- blocking (client)
def write_frame_sock(sock: socket.socket, payload: Dict[str, Any]) -> int:
    """Send one frame on a blocking socket; returns bytes written."""
    data = encode_frame(payload)
    sock.sendall(data)
    return len(data)


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame_sock(
    sock: socket.socket, max_bytes: int = MAX_FRAME_BYTES
) -> Optional[Dict[str, Any]]:
    """One response from a blocking socket; ``None`` on clean EOF."""
    first = sock.recv(_HEADER.size)
    if not first:
        return None
    header = first + (
        _recv_exactly(sock, _HEADER.size - len(first))
        if len(first) < _HEADER.size
        else b""
    )
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise ProtocolError(
            f"declared frame of {length} bytes exceeds the {max_bytes}-byte limit"
        )
    return decode_payload(_recv_exactly(sock, length))


# ------------------------------------------------------------ envelope makers
def ok_response(request_id: Any, result: Dict[str, Any]) -> Dict[str, Any]:
    return {"id": request_id, "ok": True, "result": result}


def error_response(
    request_id: Any,
    code: str,
    message: str,
    *,
    retry_after_ms: Optional[int] = None,
    detail: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    assert code in ERROR_CODES, f"unknown error code {code!r}"
    error: Dict[str, Any] = {"code": code, "message": message}
    if retry_after_ms is not None:
        error["retry_after_ms"] = retry_after_ms
    if detail:
        error["detail"] = detail
    return {"id": request_id, "ok": False, "error": error}
