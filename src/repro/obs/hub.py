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

Every client request a façade serves on a hub ends in one call,
:meth:`Observability.complete`: the trace root, the request families,
the SLO sample and the heat access are recorded there and nowhere else.
Every client batch is counted once, by :meth:`Observability.complete_batch`.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.audit import AuditLog
from repro.obs.heat import HeatTracker
from repro.obs.registry import ChildCache, MetricsRegistry
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
        # The request families: every façade's bracket records into its
        # hub's through complete().
        requests = self.metrics.counter(
            "tiera_requests_total", "Client PUT/GET/DELETE requests served."
        )
        errors = self.metrics.counter(
            "tiera_request_errors_total", "Client requests that raised."
        )
        seconds = self.metrics.histogram(
            "tiera_request_seconds",
            "Client-observed simulated latency per request.",
        )
        self._request_cells = ChildCache(lambda op: (
            requests.child(op=op), seconds.child(op=op)
        ))
        self._error_cells = ChildCache(
            lambda key: errors.child(op=key[0], error=key[1])
        )
        # The batch families: every façade's batch bracket records into
        # its hub's through complete_batch().
        self._batch_cells = (
            self.metrics.counter(
                "tiera_batches_total", "Batch requests served."
            ).child(),
            self.metrics.counter(
                "tiera_batch_items_total", "Operations submitted inside batches."
            ).child(),
            self.metrics.histogram(
                "tiera_batch_seconds",
                "Client-observed simulated latency per batch.",
            ).child(),
        )

    def owner(self, name: str) -> str:
        """A hub-unique owner id for ``name``: ``name``, then ``name#2``…"""
        self._owners[name] = n = self._owners.get(name, 0) + 1
        return name if n == 1 else f"{name}#{n}"

    def complete(
        self, op: str, key: str, root, ctx, started: float,
        exc: Optional[BaseException] = None, size: int = 0,
    ) -> float:
        """Close one client request ``op`` of ``key`` that began at
        virtual ``started`` and ended at ``ctx.time``, and return its
        latency: its trace ``root`` (with the error, if it raised
        ``exc``), its request samples, on success its heat access of
        ``size`` bytes, and its SLO sample (heat and SLOs are no-ops
        until switched on).  The request bracket
        (:func:`repro.core.api.run_request`) calls this once on every
        exit; none of it touches virtual time."""
        latency = ctx.time - started
        ok = exc is None
        self.tracer.finish_request(
            root, ctx, error=None if ok else f"{type(exc).__name__}: {exc}"
        )
        if ok:
            requests, seconds = self._request_cells[op]
            requests.inc()
            seconds.observe(latency)
            self.heat.record(op, key, size=size, at=ctx.time)
        else:
            self._error_cells[op, type(exc).__name__].inc()
        self.slo.record(op, latency, ok, ctx.time)
        return latency

    def complete_batch(self, items: int, latency: float) -> None:
        """Count one batch of ``items`` ops served in ``latency`` virtual
        seconds.  The batch bracket (:func:`repro.core.api.run_batch`)
        calls this once per batch its body ran to the end; its items
        close as requests on whichever hub runs them."""
        batches, item_count, seconds = self._batch_cells
        batches.inc()
        item_count.inc(items)
        seconds.observe(latency)

    def snapshot(self, audit_limit: int = 50) -> dict:
        """JSON-able snapshot of metrics plus the audit tail."""
        from repro.obs.export import stats_snapshot

        return stats_snapshot(self, audit_limit=audit_limit)

    def __repr__(self) -> str:
        return (
            f"<Observability metrics={len(self.metrics.names())} "
            f"audit={len(self.audit)} traces={len(self.tracer.recent())}>"
        )
