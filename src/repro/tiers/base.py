"""The Tier: what the Tiera control layer sees of a storage service.

"A tier can be any source or sink for data with a prescribed interface"
(§2.2).  The prescribed interface is this class: keyed byte storage with
capacity accounting, fill-fraction and recency attributes for threshold
events and eviction selectors, and grow/shrink with realistic
provisioning delay.

A tier keeps no state of its own about what it holds.  The service's
key order is the tier's LRU: every tier PUT and GET marks the key most
recent (``service.touch``), and the paper's ``tier.oldest`` /
``tier.newest`` selectors (Figure 5) read that order back.  So when a
volatile service loses its bytes, its recency goes with them.
"""

from __future__ import annotations

from typing import Optional

from repro.simcloud.cluster import CROSS_ZONE_LATENCY, Node, PROVISIONING_DELAY
from repro.simcloud.errors import CapacityExceededError
from repro.simcloud.resources import RequestContext
from repro.simcloud.services.base import StorageService


class Tier:
    """A named storage tier inside a Tiera instance."""

    def __init__(
        self,
        name: str,
        service: StorageService,
        server_node: Optional[Node] = None,
        colocated: bool = False,
    ):
        self.name = name
        self.service = service
        self.server_node = server_node
        #: runs in the application instance's spare RAM/disk, so it adds
        #: no marginal monthly cost (the paper's co-located deployments)
        self.colocated = colocated
        self.growing = False

    # -- classification -----------------------------------------------------

    @property
    def kind(self) -> str:
        return self.service.kind

    @property
    def durable(self) -> bool:
        return self.service.durable

    @property
    def available(self) -> bool:
        return self.service.available

    # -- capacity attributes (threshold-event operands) ----------------------

    @property
    def capacity(self) -> Optional[int]:
        return self.service.capacity

    @property
    def used(self) -> int:
        return self.service.used

    @property
    def filled(self) -> float:
        """Fill fraction in [0, 1]; an unlimited tier is never filled."""
        if self.capacity in (None, 0):
            return 0.0
        return self.used / self.capacity

    def can_fit(self, nbytes: int) -> bool:
        if self.capacity is None:
            return True
        return self.used + nbytes <= self.capacity

    # -- recency attributes (selector operands) ------------------------------

    @property
    def oldest(self) -> Optional[str]:
        """Least recently accessed key in this tier (``tier.oldest``)."""
        return self.service.lru_key()

    @property
    def newest(self) -> Optional[str]:
        """Most recently accessed key in this tier (``tier.newest``)."""
        return self.service.mru_key()

    # -- data path ------------------------------------------------------------

    def _network(self, ctx: RequestContext) -> None:
        if (
            self.server_node is not None
            and self.server_node.zone is not self.service.node.zone
        ):
            ctx.wait(CROSS_ZONE_LATENCY)

    def _span(self, ctx: RequestContext, op: str, key: str):
        """Tally the op for the running rule's audit (if any); open a
        tier-op child span when the request is being traced."""
        tally = ctx.tally
        if tally is not None:
            tally.append(self.name)
        parent = ctx.span
        if parent is None:
            return None
        return parent.child(
            f"{self.name}.{op}",
            "tier-op",
            ctx.time,
            op=op,
            key=key,
            tier=self.name,
            service=self.service.name,
        )

    def put(self, key: str, data: bytes, ctx: RequestContext) -> None:
        """Store ``data``; a put the tier cannot fit raises
        :class:`CapacityExceededError` before any time is spent."""
        room = self.service.room(key)
        if room is not None and len(data) > room:
            raise CapacityExceededError(
                self.name,
                needed=len(data),
                available=self.service.free,
            )
        span = self._span(ctx, "put", key)
        try:
            self._network(ctx)
            self.service.put(key, data, ctx)
        except Exception as exc:
            if span is not None:
                span.error = type(exc).__name__
                span.finish(ctx.time)
            raise
        if span is not None:
            span.attrs["bytes"] = len(data)
            span.finish(ctx.time)
        self.service.touch(key)

    def get(self, key: str, ctx: RequestContext) -> bytes:
        span = self._span(ctx, "get", key)
        try:
            self._network(ctx)
            data = self.service.get(key, ctx)
        except Exception as exc:
            if span is not None:
                span.error = type(exc).__name__
                span.attrs["hit"] = False
                span.finish(ctx.time)
            raise
        if span is not None:
            span.attrs["bytes"] = len(data)
            span.attrs["hit"] = True
            span.finish(ctx.time)
        self.service.touch(key)
        return data

    def delete(self, key: str, ctx: RequestContext) -> None:
        span = self._span(ctx, "delete", key)
        try:
            self._network(ctx)
            self.service.delete(key, ctx)
        except Exception as exc:
            if span is not None:
                span.error = type(exc).__name__
                span.finish(ctx.time)
            raise
        if span is not None:
            span.finish(ctx.time)

    def contains(self, key: str) -> bool:
        return self.service.contains(key)

    def keys(self):
        return self.service.keys()

    # -- elasticity -------------------------------------------------------------

    def grow(
        self,
        percent: float,
        provisioning_delay: Optional[float] = None,
    ) -> None:
        """Expand capacity by ``percent`` %.

        Memory tiers grow by provisioning a new node, which takes about a
        minute (Figure 16); the added capacity only becomes usable when
        provisioning completes.  Other tiers resize immediately.
        """
        if self.capacity is None:
            raise ValueError(f"tier {self.name!r} has unlimited capacity")
        if percent <= 0:
            raise ValueError("grow percent must be positive")
        if self.growing:
            return  # a grow is already in flight
        new_capacity = int(self.capacity * (1 + percent / 100.0))
        if provisioning_delay is None:
            provisioning_delay = (
                PROVISIONING_DELAY if self.kind == "memcached" else 0.0
            )
        if provisioning_delay <= 0:
            self.service.resize(new_capacity)
            return
        self.growing = True

        def complete() -> None:
            self.service.resize(new_capacity)
            self.growing = False

        self.service.clock.schedule(provisioning_delay, complete)

    def shrink(self, percent: float) -> None:
        """Reduce capacity by ``percent`` % (refused below current usage)."""
        if self.capacity is None:
            raise ValueError(f"tier {self.name!r} has unlimited capacity")
        if not 0 < percent <= 100:
            raise ValueError("shrink percent must be in (0, 100]")
        new_capacity = int(self.capacity * (1 - percent / 100.0))
        self.service.resize(new_capacity)

    def __repr__(self) -> str:
        cap = "∞" if self.capacity is None else str(self.capacity)
        return f"<Tier {self.name} kind={self.kind} used={self.used}/{cap}>"
