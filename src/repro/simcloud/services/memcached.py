"""Simulated Memcached / ElastiCache node.

Fast (sub-millisecond), highly parallel, expensive per GB, and volatile:
contents are lost on node failure or restart (:meth:`StorageService.crash`).
Optionally evicts least-recently-used entries when full, like real
memcached; Tiera instances that manage eviction themselves (the paper's
Figure 5 LRU/MRU policies) run it with ``evict_on_full=False`` so the
policy layer stays in charge.  Either way the LRU is the service's own
key order, the same one the tier's ``oldest`` / ``newest`` read.
"""

from __future__ import annotations

from repro.simcloud.errors import CapacityExceededError
from repro.simcloud.latency import memcached_latency
from repro.simcloud.resources import RequestContext
from repro.simcloud.services.base import StorageService


class SimMemcached(StorageService):
    kind = "memcached"
    durable = False

    def __init__(self, *args, evict_on_full: bool = False, **kwargs):
        kwargs.setdefault("latency", memcached_latency())
        kwargs.setdefault("channels", 8)
        super().__init__(*args, **kwargs)
        self.evict_on_full = evict_on_full
        self.evictions = 0

    def put(self, key: str, data: bytes, ctx: RequestContext) -> None:
        if self.evict_on_full and self.capacity is not None:
            growth = len(data) - len(self._data.get(key, b""))
            while self._data and self._used + growth > self.capacity:
                victim, blob = self._data.popitem(last=False)
                self._used -= len(blob)
                self.evictions += 1
            if self._used + growth > self.capacity:
                raise CapacityExceededError(
                    self.name, growth, self.capacity - self._used
                )
        super().put(key, data, ctx)
        self.touch(key)

    def get(self, key: str, ctx: RequestContext) -> bytes:
        data = super().get(key, ctx)
        self.touch(key)
        return data
