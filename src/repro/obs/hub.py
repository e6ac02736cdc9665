"""The observability hub: one registry + tracer + audit log per stack.

A simulated cluster owns one :class:`Observability`; every service,
tier, cache, control layer, and server created on that cluster records
into it, so a benchmark (or the RPC ``stats`` verb) reads the whole
stack's state from a single place.  Components accept the hub — or just
its registry — as an optional constructor argument and degrade to
a private registry when given ``None``, which keeps unit tests that
build pieces in isolation working unchanged.

Several owners of one kind often share a hub (every shard of a router
built on one simcloud cluster is an instance named ``WriteThrough``),
so a name cannot tell their registry cells apart.  :meth:`Observability.owner`
hands each owner a hub-unique id instead — the name itself first, then
``name#2``, ``name#3`` … in construction order, never reused — and the
owner labels its cells ``instance=<id>`` (a page cache: ``cache=<id>``).
A reopened instance takes the next id, so its counts start afresh.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.audit import AuditLog
from repro.obs.heat import HeatTracker
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import SloEngine
from repro.obs.trace import Tracer
from repro.simcloud.clock import Clock


class Observability:
    """Bundle of the observability pillars for one stack."""

    def __init__(self, clock: Optional[Clock] = None):
        self.clock = clock
        self.metrics = MetricsRegistry(clock)
        self.tracer = Tracer(clock)
        self.audit = AuditLog()
        self.slo = SloEngine(self.metrics, self.audit, clock)
        self.heat = HeatTracker(self.metrics, self.audit, clock)
        self._owners: Dict[str, int] = {}

    def owner(self, name: str) -> str:
        """A hub-unique owner id for ``name``: ``name``, then ``name#2``…"""
        self._owners[name] = n = self._owners.get(name, 0) + 1
        return name if n == 1 else f"{name}#{n}"

    def snapshot(self, audit_limit: int = 50) -> dict:
        """JSON-able snapshot of metrics plus the audit tail."""
        from repro.obs.export import stats_snapshot

        return stats_snapshot(self, audit_limit=audit_limit)

    def __repr__(self) -> str:
        return (
            f"<Observability metrics={len(self.metrics.names())} "
            f"audit={len(self.audit)} traces={len(self.tracer.recent())}>"
        )
