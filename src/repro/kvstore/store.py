"""Log-structured hash store and its in-memory twin.

:class:`LogStore` keeps every live key's latest value location in an
in-memory index and appends puts/deletes to a single data log.  Opening
an existing log replays it, stopping cleanly at the first corrupt or
truncated record (crash recovery).  :meth:`LogStore.compact` rewrites
only live records into a fresh log and atomically swaps it in.
"""

from __future__ import annotations

import os
import threading
from abc import ABC, abstractmethod
from typing import Dict, Iterator, Optional, Tuple

from repro.kvstore.record import CorruptRecordError, decode_at, encode


class KVStore(ABC):
    """Minimal embedded KV interface shared by both stores.

    Keys and values are ``bytes``.  Stores are context managers.
    """

    @abstractmethod
    def put(self, key: bytes, value: bytes) -> None: ...

    @abstractmethod
    def get(self, key: bytes) -> Optional[bytes]: ...

    @abstractmethod
    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns whether it existed."""

    @abstractmethod
    def keys(self) -> Iterator[bytes]: ...

    @abstractmethod
    def close(self) -> None: ...

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        # Default: one random get() per key.  Concrete stores override
        # this with a single-pass scan — ``_load_metadata`` walks every
        # item on every open, so recovery time rides on it.
        for key in list(self.keys()):
            value = self.get(key)
            if value is not None:
                yield key, value

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MemoryStore(KVStore):
    """Dict-backed store with the same interface; nothing survives close."""

    def __init__(self):
        self._data: Dict[bytes, bytes] = {}
        self._lock = threading.Lock()

    def put(self, key: bytes, value: bytes) -> None:
        with self._lock:
            self._data[key] = value

    def get(self, key: bytes) -> Optional[bytes]:
        with self._lock:
            return self._data.get(key)

    def delete(self, key: bytes) -> bool:
        with self._lock:
            return self._data.pop(key, None) is not None

    def keys(self) -> Iterator[bytes]:
        with self._lock:
            return iter(list(self._data.keys()))

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        with self._lock:
            return iter(list(self._data.items()))

    def close(self) -> None:
        pass


class LogStore(KVStore):
    """Durable log-structured hash store (BerkeleyDB stand-in).

    ``sync_writes=True`` fsyncs after every append — what a metadata
    store wants; leave it off for bulk loads and call :meth:`sync`.
    """

    def __init__(self, path: str, sync_writes: bool = False):
        self.path = path
        self.sync_writes = sync_writes
        self._lock = threading.RLock()
        self._index: Dict[bytes, Tuple[int, int]] = {}  # key -> (off, len)
        self._dead_bytes = 0
        #: the log's length, where the next append lands (every read
        #: seeks back to the end, so no ``tell()`` per append)
        self._end = 0
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        # A crash between writing the compaction temp file and the
        # os.replace leaves a stale ``.compact`` beside the log; it was
        # never the live store, so it is safe (and necessary) to drop.
        leftover = path + ".compact"
        if os.path.exists(leftover):
            os.remove(leftover)
        self._file = open(path, "a+b")
        self._recover()

    # -- recovery ---------------------------------------------------------

    def _recover(self) -> None:
        """Replay the log; truncate at the first torn/corrupt record."""
        self._file.seek(0)
        buf = self._file.read()
        offset = 0
        while offset < len(buf):
            try:
                key, value, nxt = decode_at(buf, offset)
            except CorruptRecordError:
                # Crash mid-append: drop the torn tail.
                self._file.truncate(offset)
                self._file.flush()
                break
            if value is None:
                old = self._index.pop(key, None)
                if old is not None:
                    self._dead_bytes += old[1]
                self._dead_bytes += nxt - offset
            else:
                old = self._index.get(key)
                if old is not None:
                    self._dead_bytes += old[1]
                self._index[key] = (offset, nxt - offset)
            offset = nxt
        self._end = offset
        self._file.seek(0, os.SEEK_END)

    # -- primitives --------------------------------------------------------

    def _append(self, blob: bytes) -> int:
        offset = self._end
        self._file.write(blob)
        self._end = offset + len(blob)
        if self.sync_writes:
            self._file.flush()
            os.fsync(self._file.fileno())
        return offset

    def put(self, key: bytes, value: bytes) -> None:
        blob = encode(key, value)
        with self._lock:
            offset = self._append(blob)
            old = self._index.get(key)
            if old is not None:
                self._dead_bytes += old[1]
            self._index[key] = (offset, len(blob))

    def get(self, key: bytes) -> Optional[bytes]:
        with self._lock:
            entry = self._index.get(key)
            if entry is None:
                return None
            offset, length = entry
            self._file.flush()
            self._file.seek(offset)
            blob = self._file.read(length)
            self._file.seek(0, os.SEEK_END)
        _, value, _ = decode_at(blob, 0)
        return value

    def delete(self, key: bytes) -> bool:
        with self._lock:
            entry = self._index.pop(key, None)
            if entry is None:
                return False
            blob = encode(key, None)
            self._append(blob)
            self._dead_bytes += entry[1] + len(blob)
            return True

    def keys(self) -> Iterator[bytes]:
        with self._lock:
            return iter(list(self._index.keys()))

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Single sequential pass over the log instead of a random
        ``get()`` per key (the ABC default)."""
        with self._lock:
            self._file.flush()
            self._file.seek(0)
            buf = self._file.read()
            self._file.seek(0, os.SEEK_END)
            entries = sorted(self._index.values())
        out = []
        for offset, _length in entries:
            key, value, _ = decode_at(buf, offset)
            if value is not None:
                out.append((key, value))
        return iter(out)

    # -- maintenance -------------------------------------------------------

    @property
    def dead_bytes(self) -> int:
        """Garbage bytes reclaimable by :meth:`compact`."""
        return self._dead_bytes

    def compact(self) -> None:
        """Rewrite only live records into a fresh log, atomically."""
        tmp_path = self.path + ".compact"
        with self._lock:
            with open(tmp_path, "wb") as out:
                new_index: Dict[bytes, Tuple[int, int]] = {}
                for key in self._index:
                    value = self.get(key)
                    blob = encode(key, value)
                    new_index[key] = (out.tell(), len(blob))
                    out.write(blob)
                out.flush()
                os.fsync(out.fileno())
                end = out.tell()
            self._file.close()
            os.replace(tmp_path, self.path)
            self._file = open(self.path, "a+b")
            self._index = new_index
            self._dead_bytes = 0
            self._end = end

    def sync(self) -> None:
        with self._lock:
            self._file.flush()
            os.fsync(self._file.fileno())

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.flush()
                self._file.close()
