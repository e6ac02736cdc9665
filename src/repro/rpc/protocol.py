"""Wire protocol: a length-prefixed frame of a JSON header and raw bytes.

Every message, request or response, is one frame::

    >II (header_len, payload_len) | header_len bytes of UTF-8 JSON | payload_len raw bytes

Request headers look like ``{"id": 7, "method": "put_object", "params":
{...}}``; response headers are ``{"id": 7, "result": ...}`` or ``{"id":
7, "error": {"code": "...", "type": "...", "message": "..."}}``.  Object
bytes never enter the JSON: a bytes-valued field (put data, a get's
value, batch items, ``invoke``'s marked params and state) is an
``[offset, length]`` reference into the frame's payload section.
:func:`encode_bytes` appends to the payload being built and returns the
reference; :func:`decode_bytes` resolves one, bounds-checked.

``code`` is the stable error taxonomy from :mod:`repro.core.errors` —
clients branch on it, never on ``type`` (an exception class name kept
for messages and backwards compatibility) or message text.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, List, Optional, Tuple

#: bound on header + payload of one frame, checked on write and on read.
MAX_FRAME = 64 * 1024 * 1024
_PREFIX = struct.Struct(">II")
#: one compact encoder: ``json.dumps`` with options builds a new one per call.
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode
#: largest single ``recv``: a length claimed by the peer is not an
#: allocation size until its bytes arrive.
_RECV_CHUNK = 1 << 20


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


def write_frame(sock: socket.socket, message: Dict[str, Any],
                payload: bytes = b"") -> None:
    """Send one frame with a single ``sendall`` (two writes would meet
    Nagle's algorithm and the peer's delayed ACK)."""
    header = _ENCODE(message).encode("utf-8")
    if len(header) + len(payload) > MAX_FRAME:
        raise ValueError("frame too large")
    sock.sendall(b"".join((_PREFIX.pack(len(header), len(payload)), header, payload)))


def _read_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, _RECV_CHUNK))
        if not chunk:
            raise ConnectionClosed()
        chunks.append(chunk)
        remaining -= len(chunk)
    return chunks[0] if len(chunks) == 1 else b"".join(chunks)


def read_frame(sock: socket.socket) -> Optional[Tuple[Any, memoryview]]:
    """Read one frame as ``(header, payload)``; ``None`` on orderly EOF
    at a frame boundary.

    A prefix claiming more than :data:`MAX_FRAME` raises ``ValueError``
    and EOF mid-frame :class:`ConnectionClosed`: the frame boundary is
    lost.  A header that does not parse raises :class:`MalformedHeader`
    after the whole frame is consumed."""
    try:
        prefix = _read_exact(sock, _PREFIX.size)
    except ConnectionClosed:
        return None
    header_len, payload_len = _PREFIX.unpack(prefix)
    if header_len + payload_len > MAX_FRAME:
        raise ValueError(
            f"frame of {header_len + payload_len} bytes exceeds limit"
        )
    body = _read_exact(sock, header_len + payload_len)
    try:
        header = json.loads(body[:header_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise MalformedHeader(f"header is not UTF-8 JSON: {exc}") from None
    return header, memoryview(body)[header_len:]
