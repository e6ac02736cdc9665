"""On-disk record format for the log-structured store.

Each record is::

    +----------+---------+---------+----------+------------+
    | crc32 (4)| klen (4)| vlen (4)| key bytes| value bytes|
    +----------+---------+---------+----------+------------+

``vlen`` of ``0xFFFFFFFF`` marks a tombstone (deletion).  The CRC covers
the two length fields plus key and value, so a torn or bit-flipped tail
is detected during recovery rather than silently read back.
"""

from __future__ import annotations

import struct
import zlib
from typing import Optional, Tuple

HEADER = struct.Struct("<III")
LENGTHS = struct.Struct("<II")
TOMBSTONE = 0xFFFFFFFF
MAX_KEY = 0xFFFF_FFFE
MAX_VALUE = 0xFFFF_FFFE


class CorruptRecordError(Exception):
    """A record failed its checksum or is structurally impossible."""


def encode(key: bytes, value: Optional[bytes]) -> bytes:
    """Serialize one put (``value`` bytes) or delete (``value=None``)."""
    if len(key) > MAX_KEY:
        raise ValueError("key too large")
    if value is None:
        vlen = TOMBSTONE
    elif len(value) > MAX_VALUE:
        raise ValueError("value too large")
    else:
        vlen = len(value)
    # The CRC is chained over the parts instead of hashing a
    # concatenation built for it: the same value, one copy fewer.
    crc = zlib.crc32(key, zlib.crc32(LENGTHS.pack(len(key), vlen)))
    if value is None:
        return HEADER.pack(crc, len(key), vlen) + key
    crc = zlib.crc32(value, crc)
    return b"".join((HEADER.pack(crc, len(key), vlen), key, value))


def decode_at(buf: bytes, offset: int) -> Tuple[bytes, Optional[bytes], int]:
    """Decode the record starting at ``offset``.

    Returns ``(key, value_or_None, next_offset)``.  Raises
    :class:`CorruptRecordError` on a bad checksum and
    :class:`IndexError`-ish truncation as ``CorruptRecordError`` too —
    the caller treats either as "end of valid log".
    """
    end = offset + HEADER.size
    if end > len(buf):
        raise CorruptRecordError("truncated header")
    crc, klen, vlen = HEADER.unpack_from(buf, offset)
    vbytes = 0 if vlen == TOMBSTONE else vlen
    body_end = end + klen + vbytes
    if body_end > len(buf):
        raise CorruptRecordError("truncated body")
    body = buf[end:body_end]
    if zlib.crc32(body, zlib.crc32(LENGTHS.pack(klen, vlen))) != crc:
        raise CorruptRecordError("checksum mismatch")
    key = body[:klen]
    value = None if vlen == TOMBSTONE else body[klen:]
    return key, value, body_end
