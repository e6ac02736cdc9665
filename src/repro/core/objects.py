"""Tiera's object model and per-object metadata.

"Tiera tracks the common attributes or metadata for each object: size,
access frequency, dirty flag, location (i.e. which tiers), and time of
last access.  In addition, each Tiera object may also be assigned a set
of tags." (§2.1)

Objects are uninterpreted byte sequences addressed by a globally unique
key; they cannot be edited in place but may be overwritten (which bumps
``version``).  ``checksum`` supports the ``storeOnce`` de-duplicating
response; ``compressed``/``encrypted`` record transformations applied by
the corresponding responses so GET can reverse them.

Which tiers hold a copy of an object is known to this module alone:
every other module asks through :class:`ObjectMeta`'s copy methods
(``holds``, ``copies``, ``add_copy``, ``drop_copy``, ...), never the
``locations`` field (``tests/core/test_one_copy_api.py``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

#: ``json.dumps(doc, sort_keys=True)``'s encoder, built once: ``dumps``
#: builds a fresh one on every call.
SORTED_JSON = json.JSONEncoder(sort_keys=True)


def content_checksum(data: bytes) -> str:
    """Stable content fingerprint used by ``storeOnce`` de-duplication."""
    return hashlib.sha256(data).hexdigest()


@dataclass
class ObjectMeta:
    """Everything the control layer knows about one stored object."""

    key: str
    size: int = 0
    locations: Set[str] = field(default_factory=set)
    dirty: bool = False
    tags: Set[str] = field(default_factory=set)
    created_at: float = 0.0
    last_access: float = 0.0
    last_modified: float = 0.0
    access_count: int = 0
    version: int = 0
    checksum: str = ""
    compressed: bool = False
    encrypted: bool = False
    #: set by storeOnce when this key's content is held by another key
    alias_of: Optional[str] = None
    #: number of alias keys pointing at this key's content
    refcount: int = 0

    def touch(self, now: float) -> None:
        """Record an access (GET) for recency/frequency attributes."""
        self.last_access = now
        self.access_count += 1

    def modified(self, now: float) -> None:
        """Record an overwrite (PUT over an existing key)."""
        self.last_modified = now
        self.version += 1

    def access_frequency(self, now: float) -> float:
        """Accesses per second over the object's lifetime so far."""
        age = max(now - self.created_at, 1e-9)
        return self.access_count / age

    # -- copies: which tiers hold this object ------------------------------
    # A copy is a tier name in ``locations``; a version per copy (ROADMAP
    # item 1a) changes these methods and the doc codec, not their callers.

    def holds(self, tier: str) -> bool:
        """Whether ``tier`` holds a copy."""
        return tier in self.locations

    def copies(self) -> List[str]:
        """The names of the tiers holding a copy, sorted (a fresh list)."""
        return sorted(self.locations)

    def sole_copy(self, tier: str) -> bool:
        """Whether ``tier`` holds the row's only copy."""
        return len(self.locations) == 1 and tier in self.locations

    def add_copy(self, tier: str) -> None:
        self.locations.add(tier)

    def drop_copy(self, tier: str) -> None:
        """Unlist ``tier``'s copy (nothing when it holds none)."""
        self.locations.discard(tier)

    def drop_copies(self, tiers: Iterable[str]) -> None:
        self.locations.difference_update(tiers)

    def set_copies(self, tiers: Iterable[str]) -> None:
        """Record exactly ``tiers`` as holding a copy."""
        self.locations = set(tiers)

    def clear_copies(self) -> None:
        self.locations = set()

    def digest_row(self) -> Tuple[str, int, Tuple[str, ...], int, str]:
        """The row :func:`repro.core.instance.state_fingerprint` hashes."""
        return (self.key, self.size, tuple(sorted(self.locations)),
                self.version, self.checksum)

    # -- persistence (metadata survives server restart via the kvstore) --

    def to_doc(
        self, with_copy: Optional[str] = None, without_copies: Iterable[str] = ()
    ) -> Dict[str, object]:
        """The JSON-able image behind store rows, journal post-images
        and snapshot members (a fresh dict: callers may edit it).

        ``with_copy`` / ``without_copies`` give the image after
        :meth:`add_copy` of that tier / :meth:`drop_copies` of those (a
        journaled write's, relocation's or removal's post-image),
        leaving ``self`` as it is."""
        locations = self.locations
        if with_copy is not None:
            locations = locations | {with_copy}
        if without_copies:
            locations = locations.difference(without_copies)
        return {
            "key": self.key,
            "size": self.size,
            "locations": sorted(locations),
            "dirty": self.dirty,
            "tags": sorted(self.tags),
            "created_at": self.created_at,
            "last_access": self.last_access,
            "last_modified": self.last_modified,
            "access_count": self.access_count,
            "version": self.version,
            "checksum": self.checksum,
            "compressed": self.compressed,
            "encrypted": self.encrypted,
            "alias_of": self.alias_of,
            "refcount": self.refcount,
        }

    @classmethod
    def from_doc(cls, doc: Dict) -> "ObjectMeta":
        return cls(
            key=doc["key"],
            size=doc["size"],
            locations=set(doc["locations"]),
            dirty=doc["dirty"],
            tags=set(doc["tags"]),
            created_at=doc["created_at"],
            last_access=doc["last_access"],
            last_modified=doc["last_modified"],
            access_count=doc["access_count"],
            version=doc["version"],
            checksum=doc["checksum"],
            compressed=doc["compressed"],
            encrypted=doc["encrypted"],
            alias_of=doc.get("alias_of"),
            refcount=doc.get("refcount", 0),
        )

    def to_json(self) -> bytes:
        """``json.dumps(self.to_doc(), sort_keys=True)`` as UTF-8, from
        one shared encoder."""
        return SORTED_JSON.encode(self.to_doc()).encode("utf-8")

    @classmethod
    def from_json(cls, blob: bytes) -> "ObjectMeta":
        return cls.from_doc(json.loads(blob.decode("utf-8")))
