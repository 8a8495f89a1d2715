"""The daemon's wire protocol: length-prefixed JSON frames, and one
binary attachment for the ids of an answer.

A frame is a 4-byte big-endian unsigned length followed by that many
bytes of body.  Length-prefixing (rather than newline-delimiting) makes
the framing robust against payloads containing anything at all, lets the
reader pre-validate the size *before* allocating, and keeps partial
reads detectable: a connection that dies mid-frame yields
:class:`ProtocolError` / EOF, never a silently truncated request.

Bodies come in two shapes, told apart by the length word's top bit
(free: :data:`MAX_FRAME_BYTES` is 1 MiB):

* **bit clear** — the body is UTF-8 JSON encoding one object.  Every
  request, and every response that carries no answer, is framed so.
* **bit set** — a response carrying answers (``result.ids`` of a
  ``query``, each ``result.results[i].ids`` of a ``batch``).  The body is
  a 4-byte big-endian envelope length, the JSON envelope — the response
  with every ``ids`` left out and ``"id_width"`` (2, 4 or 8) added — and
  then the attachment: every answer's ids, concatenated in result order,
  as little-endian unsigned integers of that width, the narrowest that
  holds the frame's largest id.  Each result's ``count`` says how many
  ids of the attachment are its own.

A reader hands each answer back as the int64 array the daemon's indexes
computed (:mod:`repro.core.answer`), so an answer never becomes a list
of Python ints between the postings and the caller; JSON lists are made
at the human edge (the CLI).  Re-encoding a decoded frame reproduces it
byte for byte.  Attachment bytes that do not add up — a width other than
2, 4 or 8, a length not a multiple of it, counts missing, negative,
boolean or not summing to it, an envelope running past the body, ids
not ascending or past 2**63 - 1, or the bit set on a request — are a
:class:`ProtocolError`, never a wrong answer.

Every frame reader lives here so the ends can never drift apart: the
daemon cuts frames from a connection's buffer (:func:`cut_frame`),
:func:`read_frame` awaits one from an asyncio stream, and the client
reads a blocking socket (:func:`read_frame_sock`).

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

A ``query`` response as read, and the envelope it travels as (the three
ids follow it as six bytes of ``<u2``)::

    {"id": 7, "ok": true, "result": {"count": 3, "complete": true,
     "shards_planned": 1, "shards_answered": 1, "ids": array([2, 4, 7])}}
    {"id": 7, "ok": true, "result": {"count": 3, "complete": true,
     "shards_planned": 1, "shards_answered": 1}, "id_width": 2}

Error codes are the closed set below — clients dispatch on ``code``,
never on message text.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.answer import ANSWER_DTYPE
from repro.core.errors import ReproError

#: Frames larger than this are refused outright (request and response).
MAX_FRAME_BYTES = 1 << 20

_HEADER = struct.Struct("!I")
#: An attached frame's length word and its envelope's length, together.
_HEADS = struct.Struct("!II")

#: The length word's top bit: the body carries an id attachment.
_ATTACHED = 1 << 31

#: The envelope field naming the attachment's bytes per id.
WIDTH_FIELD = "id_width"

#: Bytes per id → the attachment's element type; narrowest first.
_WIDTHS = {2: np.dtype("<u2"), 4: np.dtype("<u4"), 8: np.dtype("<u8")}

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
def _answer_holders(payload: Dict[str, Any]) -> Optional[List[Dict[str, Any]]]:
    """The result dicts whose ``ids`` travel as the attachment: the
    ``result`` of a query, or every ``result.results[i]`` of a batch,
    when their ``ids`` are arrays; ``None`` for a plain JSON frame."""
    result = payload.get("result")
    if not isinstance(result, dict):
        return None
    if isinstance(result.get("ids"), np.ndarray):
        return [result]
    results = result.get("results")
    if (
        isinstance(results, list)
        and results
        and all(isinstance(one, dict) and isinstance(one.get("ids"), np.ndarray) for one in results)
    ):
        return results
    return None


def _without_ids(one: Dict[str, Any]) -> Dict[str, Any]:
    stripped = dict(one)
    del stripped["ids"]
    return stripped


def _check_size(body_length: int) -> None:
    if body_length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {body_length} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """One framed message; raises :class:`ProtocolError` when oversized.

    A response carrying answers travels as an envelope plus one id
    attachment (module docstring); anything else as plain JSON.
    """
    holders = _answer_holders(payload)
    if holders is None:
        body = _ENCODER.encode(payload).encode("utf-8")
        _check_size(len(body))
        return _HEADER.pack(len(body)) + body
    result = payload["result"]
    if holders[0] is result:  # a query: one answer
        ids = result["ids"]
        top = int(ids[-1]) if len(ids) else 0
        result = _without_ids(result)
    else:  # a batch: every answer, in result order
        arrays = [one["ids"] for one in holders]
        top = max([int(ids[-1]) for ids in arrays if len(ids)], default=0)
        ids = np.concatenate(arrays)
        result = {**result, "results": [_without_ids(one) for one in holders]}
    width = 2 if top < 1 << 16 else 4 if top < 1 << 32 else 8
    head = _ENCODER.encode({**payload, "result": result, WIDTH_FIELD: width}).encode("utf-8")
    attachment = ids.astype(_WIDTHS[width]).tobytes()
    body_length = _HEADER.size + len(head) + len(attachment)
    _check_size(body_length)
    return _HEADS.pack(_ATTACHED | body_length, len(head)) + head + attachment


def decode_payload(body: bytes) -> Dict[str, Any]:
    """Parse a JSON frame body; the payload must be a JSON object."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed frame payload: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _decode_attached(body: bytes) -> Dict[str, Any]:
    """Parse an attachment-carrying body (module docstring) back into the
    response it was encoded from, each ``ids`` an answer array."""
    if len(body) < _HEADER.size:
        raise ProtocolError("attached frame too short for its envelope length")
    (head_length,) = _HEADER.unpack_from(body)
    start = _HEADER.size + head_length
    if start > len(body):
        raise ProtocolError(
            f"envelope of {head_length} bytes runs past the {len(body)}-byte body"
        )
    payload = decode_payload(body[_HEADER.size : start])
    width = payload.pop(WIDTH_FIELD, None)
    dtype = _WIDTHS.get(width) if type(width) is int else None
    if dtype is None:
        raise ProtocolError(f"unknown id width {width!r}; known: 2, 4, 8")
    n_bytes = len(body) - start
    if n_bytes % width:
        raise ProtocolError(f"attachment of {n_bytes} bytes is not a multiple of width {width}")
    result = payload.get("result")
    batch = isinstance(result, dict) and "results" in result
    holders = result["results"] if batch else [result]
    if not isinstance(holders, list) or not holders:
        raise ProtocolError("an attached batch needs a non-empty results list")
    counts = []
    for one in holders:
        count = one.get("count") if isinstance(one, dict) else None
        if type(count) is not int or count < 0:
            raise ProtocolError(f"an attached answer needs a non-negative int count, got {count!r}")
        counts.append(count)
    n_ids = n_bytes // width
    if sum(counts) != n_ids:
        raise ProtocolError(f"counts sum to {sum(counts)} but the attachment holds {n_ids} ids")
    ids = np.frombuffer(body, dtype=dtype, offset=start).astype(ANSWER_DTYPE)
    ids.setflags(write=False)
    if width == 8 and n_ids and ids.min() < 0:
        raise ProtocolError("an attached id is past 2**63 - 1")
    if n_ids > 1:
        ascending = ids[1:] > ids[:-1]
        if batch:  # one answer's last id meets the next one's first
            ends = np.cumsum(counts[:-1], dtype=np.int64)
            ascending[ends[(ends > 0) & (ends < n_ids)] - 1] = True
        if not ascending.all():
            raise ProtocolError("an attached answer's ids are not strictly ascending")
    if not batch:
        result["ids"] = ids
        return payload
    stop = 0  # a batch's answers: read-only slices of the one decoded array
    for one, count in zip(holders, counts):
        start, stop = stop, stop + count
        one["ids"] = ids[start:stop]
    return payload


def _decode(word: int, body: bytes, attachments: bool) -> Dict[str, Any]:
    if not word & _ATTACHED:
        return decode_payload(body)
    if not attachments:
        raise ProtocolError("a request frame carries no id attachment")
    return _decode_attached(body)


def _length_word(header: Union[bytes, bytearray], max_bytes: int) -> int:
    """The length word that ``header`` starts with, its declared body
    length checked."""
    (word,) = _HEADER.unpack_from(header)
    length = word & ~_ATTACHED
    if length > max_bytes:
        raise ProtocolError(
            f"declared frame of {length} bytes exceeds the {max_bytes}-byte limit"
        )
    return word


# ---------------------------------------------------------- buffered (daemon)
def cut_frame(
    buffer: bytearray,
    max_bytes: int = MAX_FRAME_BYTES,
    *,
    attachments: bool = True,
) -> Optional[Tuple[Dict[str, Any], int]]:
    """Take one whole frame off the front of ``buffer``: ``(payload,
    framed_bytes)``, or ``None`` while it has not all arrived.

    The declared length is checked as soon as the header is in, before
    any of the body is waited for.  The daemon cuts requests with
    ``attachments=False``: a request never carries ids, so the attachment
    bit on one is a violation.
    """
    if len(buffer) < _HEADER.size:
        return None
    word = _length_word(buffer, max_bytes)
    end = _HEADER.size + (word & ~_ATTACHED)
    if len(buffer) < end:
        return None
    body = bytes(buffer[_HEADER.size : end])
    del buffer[:end]
    return _decode(word, body, attachments), end


# ------------------------------------------------------------------- async
async def read_frame(
    reader: Any,
    max_bytes: int = MAX_FRAME_BYTES,
    *,
    attachments: bool = True,
) -> Optional[Tuple[Dict[str, Any], int]]:
    """One ``(payload, framed_bytes)`` from an asyncio stream reader (any
    object with an awaitable ``readexactly``); ``None`` on clean EOF."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between frames
        raise ProtocolError("connection closed mid-header") from exc
    word = _length_word(header, max_bytes)
    length = word & ~_ATTACHED
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc
    return _decode(word, body, attachments), _HEADER.size + length


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
    word = _length_word(header, max_bytes)
    return _decode(word, _recv_exactly(sock, word & ~_ATTACHED), True)


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
