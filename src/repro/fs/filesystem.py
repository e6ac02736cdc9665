"""POSIX-like file API over a Tiera instance (the FUSE gateway).

Files are split into fixed-size blocks (4 KB, the OS page size, as in
§4.1.1); block ``i`` of ``/db/users.ibd`` is the Tiera object
``/db/users.ibd\\x00i``.  Writes land in a per-file dirty-block buffer
and reach Tiera on ``fsync``/``flush``/``close`` — matching how a real
kernel absorbs writes until the application forces them out, which is
exactly the discipline databases rely on.  Reads consult, in order: the
dirty buffer, the optional node page cache (OS buffer cache model), and
Tiera itself.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.core.errors import NoSuchObjectError
from repro.core.server import TieraServer
from repro.fs.cache import CACHE_HIT_COST, PageCache
from repro.simcloud.resources import RequestContext

BLOCK_SIZE = 4096
_INODE_PREFIX = "fs-inode:"


class FileSystemError(OSError):
    """File-level errors (missing file, bad mode, closed handle)."""


def _block_key(path: str, index: int) -> str:
    return f"{path}\x00{index}"


class TieraFileSystem:
    """A file namespace stored as 4 KB objects in one Tiera instance."""

    def __init__(
        self,
        server: TieraServer,
        block_size: int = BLOCK_SIZE,
        page_cache: Optional[PageCache] = None,
    ):
        if block_size <= 0:
            raise ValueError("block size must be positive")
        self.server = server
        self.block_size = block_size
        self.page_cache = page_cache
        self._sizes: Dict[str, int] = {}
        self._persisted_sizes: Dict[str, int] = {}
        self._recover_inodes()

    def _ctx(self, ctx: Optional[RequestContext]) -> RequestContext:
        return ctx if ctx is not None else RequestContext(self.server.clock)

    # -- inode registry (persisted as tiny Tiera objects) ------------------

    def _recover_inodes(self) -> None:
        for key in self.server.keys():
            if key.startswith(_INODE_PREFIX):
                path = key[len(_INODE_PREFIX):]
                try:
                    doc = json.loads(
                        self.server.get_object(key).raise_for_error().value
                    )
                except (NoSuchObjectError, ValueError):
                    continue
                self._sizes[path] = int(doc["size"])
                self._persisted_sizes[path] = self._sizes[path]

    def _persist_inode(self, path: str, ctx: RequestContext) -> None:
        size = self._sizes[path]
        if self._persisted_sizes.get(path) == size:
            return  # unchanged since last persist; skip the round trip
        doc = json.dumps({"size": size}).encode("utf-8")
        self.server.put_object(
            _INODE_PREFIX + path, doc, tags=["fs-inode"], ctx=ctx
        ).raise_for_error()
        self._persisted_sizes[path] = size

    # -- namespace operations ----------------------------------------------

    def exists(self, path: str) -> bool:
        return path in self._sizes

    def listdir(self) -> List[str]:
        return sorted(self._sizes)

    def size_of(self, path: str) -> int:
        if path not in self._sizes:
            raise FileSystemError(f"no such file: {path!r}")
        return self._sizes[path]

    def unlink(self, path: str, ctx: Optional[RequestContext] = None) -> None:
        if path not in self._sizes:
            raise FileSystemError(f"no such file: {path!r}")
        ctx = self._ctx(ctx)
        blocks = self._block_count(self._sizes[path])
        for index in range(blocks):
            key = _block_key(path, index)
            if self.server.contains(key):
                self.server.delete_object(key, ctx=ctx).raise_for_error()
        if self.server.contains(_INODE_PREFIX + path):
            self.server.delete_object(_INODE_PREFIX + path, ctx=ctx).raise_for_error()
        if self.page_cache is not None:
            self.page_cache.invalidate(path)
        del self._sizes[path]
        self._persisted_sizes.pop(path, None)

    def rename(self, old: str, new: str, ctx: Optional[RequestContext] = None) -> None:
        if old not in self._sizes:
            raise FileSystemError(f"no such file: {old!r}")
        if new in self._sizes:
            raise FileSystemError(f"target exists: {new!r}")
        ctx = self._ctx(ctx)
        blocks = self._block_count(self._sizes[old])
        for index in range(blocks):
            old_key = _block_key(old, index)
            if self.server.contains(old_key):
                data = self.server.get_object(old_key, ctx=ctx).raise_for_error().value
                self.server.put_object(
                    _block_key(new, index), data, ctx=ctx
                ).raise_for_error()
                self.server.delete_object(old_key, ctx=ctx).raise_for_error()
        self._sizes[new] = self._sizes.pop(old)
        self._persisted_sizes.pop(old, None)
        if self.server.contains(_INODE_PREFIX + old):
            self.server.delete_object(_INODE_PREFIX + old, ctx=ctx).raise_for_error()
        self._persist_inode(new, ctx)
        if self.page_cache is not None:
            self.page_cache.invalidate(old)

    def open(self, path: str, mode: str = "r") -> "TieraFile":
        """Open a file.  Modes: ``r``/``r+`` (must exist), ``w``/``w+``
        (create/truncate), ``a``/``a+`` (create/append)."""
        if mode not in ("r", "r+", "w", "w+", "a", "a+"):
            raise FileSystemError(f"unsupported mode {mode!r}")
        exists = path in self._sizes
        if mode in ("r", "r+") and not exists:
            raise FileSystemError(f"no such file: {path!r}")
        if mode in ("w", "w+") and exists:
            self.unlink(path)
            exists = False
        if not exists:
            self._sizes[path] = 0
            self._persist_inode(path, self._ctx(None))
        handle = TieraFile(self, path, writable=mode != "r")
        if mode in ("a", "a+"):
            handle.seek(self._sizes[path])
        return handle

    def _block_count(self, size: int) -> int:
        return (size + self.block_size - 1) // self.block_size

    # -- block IO (used by TieraFile) ------------------------------------------

    def _read_block(self, path: str, index: int, ctx: RequestContext) -> bytes:
        if self.page_cache is not None:
            cached = self.page_cache.get(path, index)
            if cached is not None:
                ctx.wait(CACHE_HIT_COST)
                return cached
        key = _block_key(path, index)
        if not self.server.contains(key):
            return b"\x00" * self.block_size  # sparse region
        data = self.server.get_object(key, ctx=ctx).raise_for_error().value
        if self.page_cache is not None:
            self.page_cache.put(path, index, data)
        return data

    def _write_block(
        self, path: str, index: int, data: bytes, ctx: RequestContext
    ) -> None:
        self.server.put_object(_block_key(path, index), data, ctx=ctx).raise_for_error()
        if self.page_cache is not None:
            self.page_cache.put(path, index, data)


class FileHandle:
    """What an open handle of either file system is: a position into a
    file of known ``size``, write buffering flushed on ``close``.  The
    file system's handle adds ``size``, ``read``, ``write``, ``flush``
    and ``truncate``."""

    def __init__(self, fs, path: str, writable: bool):
        self.fs = fs
        self.path = path
        self.writable = writable
        self._pos = 0
        self._closed = False

    def tell(self) -> int:
        return self._pos

    def seek(self, offset: int, whence: int = 0) -> int:
        if whence == 0:
            new = offset
        elif whence == 1:
            new = self._pos + offset
        elif whence == 2:
            new = self.size + offset
        else:
            raise FileSystemError(f"bad whence {whence!r}")
        if new < 0:
            raise FileSystemError("negative seek position")
        self._pos = new
        return new

    def _check_open(self, writing: bool = False) -> None:
        if self._closed:
            raise FileSystemError(f"file {self.path!r} is closed")
        if writing and not self.writable:
            raise FileSystemError(f"file {self.path!r} opened read-only")

    def fsync(self, ctx: Optional[RequestContext] = None) -> None:
        """``flush``: Tiera's policy (or the device) decides durability."""
        self.flush(ctx)

    def close(self, ctx: Optional[RequestContext] = None) -> None:
        if self._closed:
            return
        self.flush(ctx)
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TieraFile(FileHandle):
    """An open file handle with a dirty-block write buffer."""

    def __init__(self, fs: TieraFileSystem, path: str, writable: bool):
        super().__init__(fs, path, writable)
        self._dirty: Dict[int, bytearray] = {}

    @property
    def size(self) -> int:
        return self.fs._sizes[self.path]

    # -- IO ----------------------------------------------------------------

    def _block_bytes(self, index: int, ctx: RequestContext) -> bytearray:
        buffered = self._dirty.get(index)
        if buffered is not None:
            return buffered
        return bytearray(self.fs._read_block(self.path, index, ctx))

    def read(self, nbytes: int = -1, ctx: Optional[RequestContext] = None) -> bytes:
        self._check_open()
        ctx = self.fs._ctx(ctx)
        end = self.size if nbytes < 0 else min(self.size, self._pos + nbytes)
        if self._pos >= end:
            return b""
        bs = self.fs.block_size
        out = bytearray()
        pos = self._pos
        while pos < end:
            index, offset = divmod(pos, bs)
            take = min(bs - offset, end - pos)
            block = self._block_bytes(index, ctx)
            out.extend(block[offset : offset + take])
            pos += take
        self._pos = end
        return bytes(out)

    def write(self, data: bytes, ctx: Optional[RequestContext] = None) -> int:
        self._check_open(writing=True)
        ctx = self.fs._ctx(ctx)
        bs = self.fs.block_size
        pos = self._pos
        view = memoryview(data)
        consumed = 0
        while consumed < len(data):
            index, offset = divmod(pos, bs)
            take = min(bs - offset, len(data) - consumed)
            if take == bs:
                block = bytearray(view[consumed : consumed + bs])
            else:
                block = self._block_bytes(index, ctx)
                if len(block) < bs:
                    block.extend(b"\x00" * (bs - len(block)))
                block[offset : offset + take] = view[consumed : consumed + take]
            self._dirty[index] = block
            pos += take
            consumed += take
        self._pos = pos
        if pos > self.size:
            self.fs._sizes[self.path] = pos
        return consumed

    def flush(self, ctx: Optional[RequestContext] = None) -> None:
        """Push dirty blocks to Tiera (what the kernel does on fsync)."""
        self._check_open()
        if not self._dirty:
            return
        ctx = self.fs._ctx(ctx)
        for index in sorted(self._dirty):
            self.fs._write_block(self.path, index, bytes(self._dirty[index]), ctx)
        self._dirty.clear()
        self.fs._persist_inode(self.path, ctx)

    def truncate(self, size: int, ctx: Optional[RequestContext] = None) -> None:
        self._check_open(writing=True)
        ctx = self.fs._ctx(ctx)
        old_blocks = self.fs._block_count(self.size)
        new_blocks = self.fs._block_count(size)
        for index in range(new_blocks, old_blocks):
            self._dirty.pop(index, None)
            key = _block_key(self.path, index)
            if self.fs.server.contains(key):
                self.fs.server.delete_object(key, ctx=ctx).raise_for_error()
            if self.fs.page_cache is not None:
                self.fs.page_cache.invalidate(self.path, index)
        self.fs._sizes[self.path] = size
        self.fs._persist_inode(self.path, ctx)
