"""Direct block-device file system: the paper's *baseline* I/O path.

"MySQL is typically deployed on an EBS volume attached to an EC2
instance" (§4.1.1) — no Tiera, no FUSE, just the kernel talking to the
volume.  Two things make that path fast that the object-per-4KB Tiera
gateway deliberately does not have:

* the **OS page cache** (the instance's RAM), and
* **request coalescing / readahead** — the kernel merges consecutive
  blocks into one device request, so a sequential scan pays one seek,
  not one per 4 KB.

:class:`RawDeviceFileSystem` models both.  File bytes live in memory;
what is *charged* is device time: cache-missing block runs are grouped
into consecutive spans, and each span costs one device request (base
latency + span bytes / bandwidth) on the volume's channel resource.
The API matches :class:`~repro.fs.filesystem.TieraFileSystem`, so
minidb runs unchanged on either.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.fs.cache import CACHE_HIT_COST, PageCache
from repro.fs.filesystem import BLOCK_SIZE, FileHandle, FileSystemError
from repro.simcloud.errors import ServiceUnavailableError
from repro.simcloud.services.base import StorageService
from repro.simcloud.resources import RequestContext


class RawDeviceFileSystem:
    """Files on one block volume, accessed like a kernel would."""

    def __init__(
        self,
        volume: StorageService,
        page_cache: Optional[PageCache] = None,
        block_size: int = BLOCK_SIZE,
    ):
        self.volume = volume
        self.page_cache = page_cache
        self.block_size = block_size
        self._data: Dict[str, bytearray] = {}

    def _ctx(self, ctx: Optional[RequestContext]) -> RequestContext:
        return ctx if ctx is not None else RequestContext(self.volume.clock)

    # -- device charging ------------------------------------------------------

    def _charge_runs(self, blocks: List[int], ctx: RequestContext, op: str) -> None:
        """One device request per run of consecutive blocks."""
        if not blocks:
            return
        if not self.volume.available:
            ctx.wait(self.volume.timeout)
            raise ServiceUnavailableError(self.volume.name)
        blocks = sorted(set(blocks))
        run_start = blocks[0]
        prev = blocks[0]
        runs: List[Tuple[int, int]] = []
        for block in blocks[1:]:
            if block == prev + 1:
                prev = block
                continue
            runs.append((run_start, prev))
            run_start = prev = block
        runs.append((run_start, prev))
        multiplier = 1.0
        if op == "put":
            multiplier = getattr(self.volume, "write_multiplier", 1.0)
        for start, end in runs:
            nbytes = (end - start + 1) * self.block_size
            service = self.volume.latency.sample(self.volume.rng, nbytes) * multiplier
            ctx.use(self.volume.resource, service)
            self.volume._count(op)

    # -- namespace --------------------------------------------------------------

    def exists(self, path: str) -> bool:
        return path in self._data

    def listdir(self) -> List[str]:
        return sorted(self._data)

    def size_of(self, path: str) -> int:
        if path not in self._data:
            raise FileSystemError(f"no such file: {path!r}")
        return len(self._data[path])

    def unlink(self, path: str, ctx: Optional[RequestContext] = None) -> None:
        if path not in self._data:
            raise FileSystemError(f"no such file: {path!r}")
        del self._data[path]
        if self.page_cache is not None:
            self.page_cache.invalidate(path)

    def rename(self, old: str, new: str, ctx: Optional[RequestContext] = None) -> None:
        if old not in self._data:
            raise FileSystemError(f"no such file: {old!r}")
        if new in self._data:
            raise FileSystemError(f"target exists: {new!r}")
        self._data[new] = self._data.pop(old)
        if self.page_cache is not None:
            self.page_cache.invalidate(old)

    def open(self, path: str, mode: str = "r") -> "RawDeviceFile":
        if mode not in ("r", "r+", "w", "w+", "a", "a+"):
            raise FileSystemError(f"unsupported mode {mode!r}")
        exists = path in self._data
        if mode in ("r", "r+") and not exists:
            raise FileSystemError(f"no such file: {path!r}")
        if mode in ("w", "w+"):
            self._data[path] = bytearray()
            if self.page_cache is not None:
                self.page_cache.invalidate(path)
        elif not exists:
            self._data[path] = bytearray()
        handle = RawDeviceFile(self, path, writable=mode != "r")
        if mode in ("a", "a+"):
            handle.seek(len(self._data[path]))
        return handle


class RawDeviceFile(FileHandle):
    """An open handle with kernel-style caching and write buffering."""

    #: blocks prefetched ahead once a sequential miss pattern is seen
    READAHEAD = 32

    def __init__(self, fs: RawDeviceFileSystem, path: str, writable: bool):
        super().__init__(fs, path, writable)
        self._dirty_blocks: set = set()
        self._last_block = -2  # sequential-access detector state

    @property
    def size(self) -> int:
        return len(self.fs._data[self.path])

    # -- IO -------------------------------------------------------------------

    def read(self, nbytes: int = -1, ctx: Optional[RequestContext] = None) -> bytes:
        self._check_open()
        ctx = self.fs._ctx(ctx)
        data = self.fs._data[self.path]
        end = len(data) if nbytes < 0 else min(len(data), self._pos + nbytes)
        if self._pos >= end:
            return b""
        bs = self.fs.block_size
        first = self._pos // bs
        last = (end - 1) // bs
        cache = self.fs.page_cache
        missing: List[int] = []
        for block in range(first, last + 1):
            if block in self._dirty_blocks:
                continue  # freshly written, still in the write buffer
            if cache is not None and cache.get(self.path, block) is not None:
                ctx.wait(CACHE_HIT_COST)
                continue
            missing.append(block)
        # Kernel readahead: a miss continuing a sequential pattern pulls
        # a whole window in with one device request.
        if missing and first == self._last_block + 1 and cache is not None:
            last_file_block = (len(data) - 1) // bs if data else -1
            ahead = range(last + 1, min(last + 1 + self.READAHEAD, last_file_block + 1))
            for block in ahead:
                if cache.peek(self.path, block) is None:
                    missing.append(block)
        self._last_block = last
        self.fs._charge_runs(missing, ctx, "get")
        if cache is not None:
            for block in missing:
                chunk = bytes(data[block * bs : (block + 1) * bs])
                cache.put(self.path, block, chunk)
        out = bytes(data[self._pos : end])
        self._pos = end
        return out

    def write(self, data: bytes, ctx: Optional[RequestContext] = None) -> int:
        self._check_open(writing=True)
        buf = self.fs._data[self.path]
        end = self._pos + len(data)
        if end > len(buf):
            buf.extend(b"\x00" * (end - len(buf)))
        buf[self._pos : end] = data
        bs = self.fs.block_size
        for block in range(self._pos // bs, (max(end, 1) - 1) // bs + 1):
            self._dirty_blocks.add(block)
            if self.fs.page_cache is not None:
                self.fs.page_cache.invalidate(self.path, block)
        self._pos = end
        return len(data)

    def flush(self, ctx: Optional[RequestContext] = None) -> None:
        """Write buffered blocks out, coalescing consecutive runs."""
        self._check_open()
        if not self._dirty_blocks:
            return
        ctx = self.fs._ctx(ctx)
        self.fs._charge_runs(sorted(self._dirty_blocks), ctx, "put")
        if self.fs.page_cache is not None:
            # Written blocks stay resident in the OS page cache.
            data = self.fs._data[self.path]
            bs = self.fs.block_size
            for block in self._dirty_blocks:
                chunk = bytes(data[block * bs : (block + 1) * bs])
                self.fs.page_cache.put(self.path, block, chunk)
        self._dirty_blocks.clear()

    def truncate(self, size: int, ctx: Optional[RequestContext] = None) -> None:
        self._check_open(writing=True)
        data = self.fs._data[self.path]
        bs = self.fs.block_size
        if size < len(data):
            del data[size:]
            first_gone = (size + bs - 1) // bs
            self._dirty_blocks = {b for b in self._dirty_blocks if b < first_gone}
            if self.fs.page_cache is not None:
                self.fs.page_cache.invalidate(self.path)
