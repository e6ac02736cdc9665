"""The observability hub: one registry + tracer + audit log per stack.

A simulated cluster owns one :class:`Observability`; every service,
tier, cache, control layer, and server created on that cluster records
into it, so a benchmark (or the RPC ``stats`` verb) reads the whole
stack's state from a single place.  Components accept the hub — or just
its registry — as an optional constructor argument and degrade to
no-op recording when given ``None``, which keeps unit tests that build
pieces in isolation working unchanged.
"""

from __future__ import annotations

from typing import Optional

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

    def snapshot(self, audit_limit: int = 50) -> dict:
        """JSON-able snapshot of metrics plus the audit tail."""
        from repro.obs.export import stats_snapshot

        return stats_snapshot(self, audit_limit=audit_limit)

    def __repr__(self) -> str:
        return (
            f"<Observability metrics={len(self.metrics.names())} "
            f"audit={len(self.audit)} traces={len(self.tracer.recent())}>"
        )
