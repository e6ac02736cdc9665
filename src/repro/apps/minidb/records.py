"""Row schemas and serialization.

Rows are fixed-order tuples typed by a :class:`Schema`.  Serialization
is length-prefixed per column with a one-byte type tag, so a row can be
decoded without the schema at hand (useful for journal records) while
the schema still validates on the way in.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

INT = "int"
FLOAT = "float"
STR = "str"
BYTES = "bytes"

_TAGS = {INT: b"i", FLOAT: b"f", STR: b"s", BYTES: b"b"}
_TYPES = {v: k for k, v in _TAGS.items()}

_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_LEN = struct.Struct("<I")


@dataclass(frozen=True)
class Column:
    name: str
    type: str

    def __post_init__(self) -> None:
        if self.type not in _TAGS:
            raise ValueError(f"unknown column type {self.type!r}")

    def validate(self, value: Any) -> None:
        ok = {
            INT: lambda v: isinstance(v, int) and not isinstance(v, bool),
            FLOAT: lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
            STR: lambda v: isinstance(v, str),
            BYTES: lambda v: isinstance(v, (bytes, bytearray)),
        }[self.type](value)
        if not ok:
            raise TypeError(
                f"column {self.name!r} expects {self.type}, got {type(value).__name__}"
            )


@dataclass(frozen=True)
class Schema:
    """An ordered column list; the first column is the primary key."""

    columns: Tuple[Column, ...]

    def __init__(self, columns: Sequence[Column]):
        if not columns:
            raise ValueError("a schema needs at least one column")
        if columns[0].type != INT:
            raise ValueError("the primary key (first column) must be an int")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise ValueError("duplicate column names")
        object.__setattr__(self, "columns", tuple(columns))

    def names(self) -> List[str]:
        return [c.name for c in self.columns]

    def validate_row(self, row: Sequence[Any]) -> None:
        if len(row) != len(self.columns):
            raise ValueError(
                f"row has {len(row)} values, schema has {len(self.columns)}"
            )
        for column, value in zip(self.columns, row):
            column.validate(value)

    def to_dict(self, row: Sequence[Any]) -> dict:
        return dict(zip(self.names(), row))


def encode_row(row: Sequence[Any]) -> bytes:
    """Serialize a row into a self-describing byte string."""
    parts: List[bytes] = [_LEN.pack(len(row))]
    for value in row:
        if isinstance(value, bool):
            raise TypeError("bool is not a supported column value")
        if isinstance(value, int):
            parts.append(b"i" + _I64.pack(value))
        elif isinstance(value, float):
            parts.append(b"f" + _F64.pack(value))
        elif isinstance(value, str):
            blob = value.encode("utf-8")
            parts.append(b"s" + _LEN.pack(len(blob)) + blob)
        elif isinstance(value, (bytes, bytearray)):
            parts.append(b"b" + _LEN.pack(len(value)) + bytes(value))
        else:
            raise TypeError(f"unsupported value type {type(value).__name__}")
    return b"".join(parts)


def decode_row(blob: bytes) -> Tuple[Any, ...]:
    """Inverse of :func:`encode_row`."""
    (count,) = _LEN.unpack_from(blob, 0)
    offset = _LEN.size
    values: List[Any] = []
    for _ in range(count):
        tag = blob[offset : offset + 1]
        offset += 1
        if tag == b"i":
            values.append(_I64.unpack_from(blob, offset)[0])
            offset += _I64.size
        elif tag == b"f":
            values.append(_F64.unpack_from(blob, offset)[0])
            offset += _F64.size
        elif tag in (b"s", b"b"):
            (length,) = _LEN.unpack_from(blob, offset)
            offset += _LEN.size
            raw = blob[offset : offset + length]
            offset += length
            values.append(raw.decode("utf-8") if tag == b"s" else raw)
        else:
            raise ValueError(f"bad type tag {tag!r} at offset {offset - 1}")
    return tuple(values)
