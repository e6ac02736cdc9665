"""Node page cache: the EC2 instance's OS buffer cache, modelled.

The paper's baselines lean on this — "requests can be served from the
local instance's buffer cache" explains why MySQL-on-EBS holds up on
read-only workloads (Figure 7) — and its TPC-W experiment explicitly
shrinks instance memory to 1 GB to limit it.  A :class:`PageCache` is a
byte-budgeted LRU over (path, block) pairs; hits cost only a small CPU
charge instead of a storage round trip.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

# Reading a cached page costs a memcpy + syscall, not a device trip.
CACHE_HIT_COST = 3e-6


class PageCache:
    """Byte-budgeted LRU cache of file blocks."""

    def __init__(self, capacity_bytes: int, obs=None, name: str = "page-cache"):
        if capacity_bytes <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity_bytes
        self.name = name
        self._pages: "OrderedDict[Tuple[str, int], bytes]" = OrderedDict()
        self._used = 0
        self.hits = 0
        self.misses = 0
        # Optional repro.obs hub: hit/miss tallies also land in the
        # metrics registry so benchmark reports can read them uniformly.
        self._hit_cell = self._miss_cell = None
        if obs is not None:
            self._hit_cell = obs.metrics.counter(
                "tiera_page_cache_hits_total", "Page-cache block hits."
            ).child(cache=name)
            self._miss_cell = obs.metrics.counter(
                "tiera_page_cache_misses_total", "Page-cache block misses."
            ).child(cache=name)

    @property
    def used(self) -> int:
        return self._used

    def get(self, path: str, block: int) -> Optional[bytes]:
        """A demand read: the block or None, counted as a hit or a miss."""
        page = self.peek(path, block)
        if page is None:
            self.misses += 1
            if self._miss_cell is not None:
                self._miss_cell.inc()
            return None
        self.hits += 1
        if self._hit_cell is not None:
            self._hit_cell.inc()
        return page

    def peek(self, path: str, block: int) -> Optional[bytes]:
        """The block or None, touching LRU order exactly as :meth:`get`
        does but counting nothing (a readahead probe is no demand read)."""
        page = self._pages.get((path, block))
        if page is not None:
            self._pages.move_to_end((path, block))
        return page

    def put(self, path: str, block: int, data: bytes) -> None:
        key = (path, block)
        old = self._pages.pop(key, None)
        if old is not None:
            self._used -= len(old)
        self._pages[key] = data
        self._used += len(data)
        while self._used > self.capacity and self._pages:
            _, evicted = self._pages.popitem(last=False)
            self._used -= len(evicted)

    def invalidate(self, path: str, block: Optional[int] = None) -> None:
        if block is not None:
            old = self._pages.pop((path, block), None)
            if old is not None:
                self._used -= len(old)
            return
        for key in [k for k in self._pages if k[0] == path]:
            self._used -= len(self._pages.pop(key))

    def clear(self) -> None:
        self._pages.clear()
        self._used = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
