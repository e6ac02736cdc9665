"""Wire protocol: a length-prefixed frame of a header and raw bytes.

Every message, request or response, is one frame::

    >II (header_len, payload_len) | header_len bytes of header | payload_len raw bytes

The high bit of ``header_len`` (:data:`BINARY`) says which header
follows.  The four data verbs — ``put_object``, ``get_object``,
``delete_object`` and ``batch`` — carry a fixed binary header
(:func:`encode_request`, :func:`encode_reply`; docs/API.md has one
layout table per verb).  Every other method carries UTF-8 JSON:
request headers look like ``{"id": 7, "method": "stats", "params":
{...}}``; response headers are ``{"id": 7, "result": ...}`` or ``{"id":
7, "error": {"code": "...", "type": "...", "message": "..."}}``.

Object bytes never enter a header.  A binary header gives each put's
data and each get's value a length, and the bytes follow one another in
the payload section in item order.  A bytes-valued JSON field
(``invoke``'s marked params and state) is an ``[offset, length]``
reference into the payload section: :func:`encode_bytes` appends to the
payload being built and returns the reference; :func:`decode_bytes`
resolves one, bounds-checked.

``code`` is the stable error taxonomy from :mod:`repro.core.errors` —
clients branch on it, never on ``type`` (an exception class name kept
for messages and backwards compatibility) or message text.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.api import BatchResult, OpResult

#: bound on header + payload of one frame, checked on write and on read.
MAX_FRAME = 64 * 1024 * 1024
_PREFIX = struct.Struct(">II")
#: set in a prefix's ``header_len``: the header is binary, not JSON.
BINARY = 1 << 31
#: one compact encoder: ``json.dumps`` with options builds a new one per call.
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode
#: largest single ``recv``: a length claimed by the peer is not an
#: allocation size until its bytes arrive.
_RECV_CHUNK = 1 << 20

#: method codes of the binary data verbs.  A single verb's code is also
#: the op code of its one op; an error reply's method is ``ERROR``.
ERROR, PUT_OBJECT, GET_OBJECT, DELETE_OBJECT, BATCH = range(5)
VERBS = {PUT_OBJECT: "put_object", GET_OBJECT: "get_object",
         DELETE_OBJECT: "delete_object", BATCH: "batch"}
#: op codes: a single verb's, and ``ERROR`` for an error reply's result.
_OP_NAMES = {ERROR: "", PUT_OBJECT: "put", GET_OBJECT: "get",
             DELETE_OBJECT: "delete"}
_OP_CODES = {name: code for code, name in _OP_NAMES.items()}
#: a length of ``NONE`` stands for ``None`` (no prefer, data, tags,
#: error or value) and has no bytes: never the same as an empty one.
NONE = 0xFFFFFFFF

# Every binary header starts with its method code and the request id
# (``_HEAD``; ``REQUEST_ID`` slices the id's bytes out).  A request then
# holds its ops — a single verb one, ``BATCH`` its parallelism and count
# first — and a reply its results — ``BATCH`` its latency, parallelism
# and count first.  Each op or result is a fixed struct of numbers and
# lengths, then its strings in the same order; its data or value is the
# payload section's next bytes.
_HEAD = struct.Struct(">BQ")
REQUEST_ID = slice(1, _HEAD.size)
_BATCH = struct.Struct(">qI")
#: an op: op code; lengths of key, prefer, data and tags (a count).
#: The key and prefer follow, then each tag (a ``>I`` length, its bytes).
_OP = struct.Struct(">BIIII")
_LEN = struct.Struct(">I")
_BATCH_REPLY = struct.Struct(">dqI")
#: a result: op code, ok, latency, size, length of the value; lengths of
#: key, tier, checksum, error, error_message and error_type.
_RESULT = struct.Struct(">B?dqIIIIIII")


class RpcError(Exception):
    """An error returned by the remote server.

    ``code`` is the stable error code (``NO_SUCH_OBJECT``,
    ``BACKPRESSURE``, …); ``error_type`` is the server-side exception
    class name, kept for human-readable messages.
    """

    def __init__(self, error_type: str, message: str, code: str = "INTERNAL"):
        self.error_type = error_type
        self.message = message
        self.code = code or "INTERNAL"
        super().__init__(f"{error_type}: {message}")


class ConnectionClosed(ConnectionError):
    """The peer closed the connection mid-frame."""


class MalformedHeader(ValueError):
    """An intact frame whose header is not UTF-8 JSON.  The stream is
    still at a frame boundary, so the server answers instead of closing."""


def encode_bytes(payload: bytearray, data: bytes) -> List[int]:
    """Append ``data`` to the payload section being built; return the
    ``[offset, length]`` reference the header carries in its place."""
    offset = len(payload)
    payload += data
    return [offset, len(data)]


def decode_bytes(payload, ref) -> bytes:
    """The bytes ``ref`` names in a received payload section.

    ``TypeError`` for a reference that is not ``[int, int]``,
    ``ValueError`` for one reaching outside the section."""
    if type(ref) is not list or len(ref) != 2:
        raise TypeError(f"a payload reference is [offset, length], not {ref!r}")
    offset, length = ref
    if type(offset) is not int or type(length) is not int:
        raise TypeError(f"a payload reference is [offset, length], not {ref!r}")
    if offset < 0 or length < 0 or offset + length > len(payload):
        raise ValueError(
            f"payload reference {ref} is outside the {len(payload)}-byte payload"
        )
    return bytes(payload[offset:offset + length])


# -- binary headers of the data verbs ----------------------------------------
#
# Each field is spelled out rather than looped over: these run once per
# op on both sides of every round trip.  A string that runs past the
# header's end leaves the offset past it too, so the final offset check
# refuses the header.

#: an op as :func:`encode_request` takes it and :func:`decode_request`
#: gives it: op name, key, data, tags, prefer — :class:`BatchOp`'s fields.
Item = Tuple[str, str, Optional[bytes], Optional[List[str]], Optional[str]]


def encode_request(method: int, request_id: int, items: Sequence[Item],
                   parallelism: int = 0) -> Tuple[bytes, bytes]:
    """A data verb's request as ``(header, payload)``: a single verb
    carries its one item, ``BATCH`` its parallelism and every item."""
    parts = [_HEAD.pack(method, request_id)]
    if method == BATCH:
        parts.append(_BATCH.pack(parallelism, len(items)))
    data = []
    for op, key, value, tags, prefer in items:
        key = key.encode()
        if prefer is not None:
            prefer = prefer.encode()
        parts += (
            _OP.pack(_OP_CODES[op], len(key),
                     NONE if prefer is None else len(prefer),
                     NONE if value is None else len(value),
                     NONE if tags is None else len(tags)),
            key, prefer or b"",
        )
        for tag in tags or ():
            tag = tag.encode()
            parts += (_LEN.pack(len(tag)), tag)
        if value is not None:
            data.append(value)
    return b"".join(parts), b"".join(data)


def decode_request(header: bytes, payload) -> Tuple[List[Item], int]:
    """The items of a binary data-verb request and, for ``BATCH``, its
    parallelism.  ``ValueError`` for a header or payload that does not
    hold exactly them, and for a single verb's item of another kind; an
    op name a batch item does not know is left to :class:`BatchOp`."""
    try:
        method, _ = _HEAD.unpack_from(header)
        at, parallelism, count = _HEAD.size, 0, 1
        if method == BATCH:
            parallelism, count = _BATCH.unpack_from(header, at)
            at += _BATCH.size
        items, taken = [], 0
        for _ in range(count):
            code, key, prefer, size, ntags = _OP.unpack_from(header, at)
            at += _OP.size
            key, at = header[at:at + key].decode(), at + key
            if prefer != NONE:
                prefer, at = header[at:at + prefer].decode(), at + prefer
            else:
                prefer = None
            tags = None
            if ntags != NONE:
                tags = []
                for _ in range(ntags):
                    (length,) = _LEN.unpack_from(header, at)
                    at += _LEN.size
                    tags.append(header[at:at + length].decode())
                    at += length
            data = None
            if size != NONE:
                data, taken = bytes(payload[taken:taken + size]), taken + size
            items.append((_OP_NAMES.get(code, code), key, data, tags, prefer))
    except struct.error as exc:
        raise ValueError(f"the header ends inside a field: {exc}") from None
    if at != len(header) or taken != len(payload):
        raise ValueError("the fields do not fill the header and payload")
    if method != BATCH and items[0][0] != _OP_NAMES.get(method):
        raise ValueError(f"a {VERBS.get(method)} request holds a {items[0][0]}")
    return items, parallelism


def encode_reply(method: int, request_id: int,
                 reply: Union[OpResult, BatchResult]) -> Tuple[bytes, bytes]:
    """A data verb's answer as ``(header, payload)``: a single verb's
    :class:`OpResult`, or a :class:`BatchResult` (its ``code`` is not
    sent; it follows from the results)."""
    parts = [_HEAD.pack(method, request_id)]
    results = (reply,)
    if method == BATCH:
        results = reply.results
        parts.append(_BATCH_REPLY.pack(
            reply.latency, reply.parallelism, len(results)))
    values = []
    for result in results:
        key, tier = result.key.encode(), result.tier.encode()
        checksum, error = result.checksum.encode(), result.error
        if error is not None:
            error = error.encode()
        message = result.error_message.encode()
        error_type = result.error_type.encode()
        value = result.value
        parts += (
            _RESULT.pack(
                _OP_CODES[result.op], result.ok, result.latency, result.size,
                NONE if value is None else len(value), len(key), len(tier),
                len(checksum), NONE if error is None else len(error),
                len(message), len(error_type),
            ),
            key, tier, checksum, error or b"", message, error_type,
        )
        if value is not None:
            values.append(value)
    return b"".join(parts), b"".join(values)


def encode_error(request_id: int, code: str, error_type: str,
                 message: str) -> bytes:
    """The header of an error reply to a binary request: method
    ``ERROR`` and one result that carries the code, type and message."""
    failed = OpResult("", "", False, error=code, error_message=message,
                      error_type=error_type)
    return encode_reply(ERROR, request_id, failed)[0]


def decode_reply(header: bytes, payload) -> Union[OpResult, BatchResult]:
    """A data verb's reply: its :class:`OpResult` or
    :class:`BatchResult`, a failed result carrying an :class:`RpcError`
    as its exception.  An error reply raises its :class:`RpcError`; a
    reply that does not parse, ``ValueError``."""
    try:
        method, _ = _HEAD.unpack_from(header)
        at, count, taken = _HEAD.size, 1, 0
        if method == BATCH:
            latency, parallelism, count = _BATCH_REPLY.unpack_from(header, at)
            at += _BATCH_REPLY.size
        results = []
        for _ in range(count):
            (code, ok, took, size, length, key, tier, checksum, error,
             message, error_type) = _RESULT.unpack_from(header, at)
            at += _RESULT.size
            key, at = header[at:at + key].decode(), at + key
            tier, at = header[at:at + tier].decode(), at + tier
            checksum, at = header[at:at + checksum].decode(), at + checksum
            if error != NONE:
                error, at = header[at:at + error].decode(), at + error
            else:
                error = None
            message, at = header[at:at + message].decode(), at + message
            error_type, at = header[at:at + error_type].decode(), at + error_type
            value = None
            if length != NONE:
                value, taken = bytes(payload[taken:taken + length]), taken + length
            if code not in _OP_NAMES:
                raise ValueError(f"unknown op code {code}")
            result = OpResult(_OP_NAMES[code], key, ok, took, tier, checksum,
                              size, error, message, error_type, value)
            if not ok:
                result.exception = RpcError(
                    error_type or "Error", message, code=error or "INTERNAL")
            results.append(result)
    except struct.error as exc:
        raise ValueError(f"the header ends inside a field: {exc}") from None
    if at != len(header) or taken != len(payload):
        raise ValueError("the fields do not fill the header and payload")
    if method == ERROR:
        raise results[0].exception or ValueError("an error reply without an error")
    if method == BATCH:
        return BatchResult(results, latency, parallelism)
    return results[0]


def request_head(header: bytes) -> Tuple[Optional[int], int]:
    """``(method code, request id)`` of a binary header; ``(None, 0)``
    when it is too short to hold them."""
    if len(header) < _HEAD.size:
        return None, 0
    return _HEAD.unpack_from(header)


# -- framing -------------------------------------------------------------------


def write_frame(sock: socket.socket, message: Union[Dict[str, Any], bytes],
                payload: bytes = b"") -> None:
    """Send one frame with a single ``sendall`` (two writes would meet
    Nagle's algorithm and the peer's delayed ACK).  ``message`` is a
    JSON header object, or the ``bytes`` of a binary header, which the
    prefix then flags."""
    if type(message) is bytes:
        header, flag = message, BINARY
    else:
        header, flag = _ENCODE(message).encode("utf-8"), 0
    if len(header) + len(payload) > MAX_FRAME:
        raise ValueError("frame too large")
    sock.sendall(b"".join(
        (_PREFIX.pack(len(header) | flag, len(payload)), header, payload)))


def _read_exact(sock: socket.socket, n: int) -> bytes:
    chunk = sock.recv(min(n, _RECV_CHUNK))
    if len(chunk) == n:
        return chunk            # one recv, the usual case
    chunks, remaining = [chunk], n - len(chunk)
    while remaining:
        if not chunk:
            raise ConnectionClosed()
        chunk = sock.recv(min(remaining, _RECV_CHUNK))
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> Optional[Tuple[Any, memoryview]]:
    """Read one frame as ``(header, payload)``; ``None`` on orderly EOF
    at a frame boundary.  A flagged header comes back as its ``bytes``
    (:func:`decode_request`, :func:`decode_reply` parse it), any other
    as the JSON value it holds.

    A prefix claiming more than :data:`MAX_FRAME` raises ``ValueError``
    and EOF mid-frame :class:`ConnectionClosed`: the frame boundary is
    lost.  A JSON header that does not parse raises
    :class:`MalformedHeader` after the whole frame is consumed."""
    try:
        prefix = _read_exact(sock, _PREFIX.size)
    except ConnectionClosed:
        return None
    header_len, payload_len = _PREFIX.unpack(prefix)
    binary = header_len & BINARY
    header_len &= BINARY - 1
    if header_len + payload_len > MAX_FRAME:
        raise ValueError(
            f"frame of {header_len + payload_len} bytes exceeds limit"
        )
    body = _read_exact(sock, header_len + payload_len)
    if binary:
        return body[:header_len], memoryview(body)[header_len:]
    try:
        header = json.loads(body[:header_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise MalformedHeader(f"header is not UTF-8 JSON: {exc}") from None
    return header, memoryview(body)[header_len:]
