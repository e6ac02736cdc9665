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

from repro.obs.registry import MetricsRegistry

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
        # Hits and misses count in the hub's registry under a hub-unique
        # ``cache=`` owner id; a bare cache counts into a private one.
        metrics = obs.metrics if obs is not None else MetricsRegistry()
        owner = obs.owner(name) if obs is not None else name
        self._hit_cell = metrics.counter(
            "tiera_page_cache_hits_total", "Page-cache block hits."
        ).child(cache=owner)
        self._miss_cell = metrics.counter(
            "tiera_page_cache_misses_total", "Page-cache block misses."
        ).child(cache=owner)

    @property
    def hits(self) -> int:
        return int(self._hit_cell.value)

    @property
    def misses(self) -> int:
        return int(self._miss_cell.value)

    @property
    def used(self) -> int:
        return self._used

    def get(self, path: str, block: int) -> Optional[bytes]:
        """A demand read: the block or None, counted as a hit or a miss."""
        page = self.peek(path, block)
        (self._miss_cell if page is None else self._hit_cell).inc()
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
