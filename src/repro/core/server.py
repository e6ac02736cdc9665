"""The application interface layer: PUT/GET over a Tiera instance.

"The application interface layer exposes a simple PUT/GET API … the
client can merely call PUT/GET and let the Tiera server decide in which
tier the object should be placed/retrieved based on the control layer"
(§2.2).  The server builds an action per client call, hands it to the
control layer, and applies a default placement (first-declared tier,
evicting down the instance's eviction chain) when no rule placed the
object.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core import api, features
from repro.core.actions import Action, DELETE, GET, INSERT
from repro.core.api import (
    AdmissionController,
    BatchOp,
    BatchResult,
    BatchVerbs,
    OpResult,
)
from repro.core.instance import TieraInstance
from repro.core.objects import ObjectMeta, content_checksum
from repro.simcloud.resources import RequestContext


class TieraServer(BatchVerbs, features.ManagementVerbs):
    """The :class:`~repro.core.api.StorageAPI` façade over one
    :class:`TieraInstance`.

    Single-object verbs return :class:`~repro.core.api.OpResult`
    envelopes; batch verbs run their items across ``parallelism``
    concurrent lanes in virtual time and return a
    :class:`~repro.core.api.BatchResult`.  The admin plane is the
    three :class:`~repro.core.api.ManagementAPI` verbs, each a lookup in
    the :mod:`repro.core.features` table.
    """

    def __init__(
        self,
        instance: TieraInstance,
        max_inflight: int = api.DEFAULT_MAX_INFLIGHT,
    ):
        self.instance = instance
        self.clock = instance.clock
        self.obs = instance.obs
        self.admission = AdmissionController(max_inflight, self.obs.metrics)

    def _ctx(self, ctx: Optional[RequestContext]) -> RequestContext:
        return ctx if ctx is not None else RequestContext(self.clock)

    # -- the StorageAPI surface (envelope verbs) -----------------------------

    def put_object(
        self,
        key: str,
        data: bytes,
        *,
        tags: Optional[List[str]] = None,
        ctx: Optional[RequestContext] = None,
        trace: bool = False,
    ) -> OpResult:
        """Store (or overwrite) an object; failure comes back in the
        envelope (``ok=False`` + stable error code), not as a raise."""
        return self._run_op(
            BatchOp.put(key, data, tags=tags), self._ctx(ctx), trace
        )

    def get_object(
        self,
        key: str,
        *,
        prefer: Optional[str] = None,
        ctx: Optional[RequestContext] = None,
        trace: bool = False,
    ) -> OpResult:
        """Retrieve an object; the payload rides in ``result.value``."""
        return self._run_op(
            BatchOp.get(key, prefer=prefer), self._ctx(ctx), trace
        )

    def delete_object(
        self,
        key: str,
        *,
        ctx: Optional[RequestContext] = None,
        trace: bool = False,
    ) -> OpResult:
        return self._run_op(BatchOp.delete(key), self._ctx(ctx), trace)

    def _run_op(
        self, op: BatchOp, ctx: RequestContext, trace: bool = False
    ) -> OpResult:
        """Execute one op on this instance inside the request bracket
        (:func:`repro.core.api.run_request`)."""
        return api.run_request(self.obs, op, ctx, trace, self._apply_op)

    def _apply_op(self, op: BatchOp, ctx: RequestContext) -> OpResult:
        # Leaving the write-back scope stores each object the op touched
        # once — before any envelope is built, an error's included; a
        # ProcessCrash stores nothing.
        with self.instance.meta_writeback:
            if op.op == api.PUT:
                meta = self._put(op.key, op.data, op.tags or (), ctx)
                return OpResult(
                    op=api.PUT,
                    key=op.key,
                    ok=True,
                    tier=",".join(meta.copies()),
                    checksum=meta.checksum,
                    size=len(op.data),
                )
            if op.op == api.GET:
                ctx.served_by = None
                data = self._get(op.key, ctx, op.prefer)
                return OpResult(
                    op=api.GET,
                    key=op.key,
                    ok=True,
                    tier=ctx.served_by or "",
                    checksum=content_checksum(data),
                    size=len(data),
                    value=data,
                )
            self._delete(op.key, ctx)
            return OpResult(op=api.DELETE, key=op.key, ok=True)

    def _put(
        self, key: str, data: bytes, tags: Iterable[str], ctx: RequestContext
    ) -> ObjectMeta:
        instance = self.instance
        overwrite = instance.has_object(key)
        if overwrite:
            if instance.versioning_enabled:
                instance.preserve_version(key, ctx)
            # Overwrite: keep the dedup index and any aliases coherent
            # before the new bytes land.
            instance.prepare_overwrite(key, ctx)
        meta = instance.create_object(key, len(data), tags=set(tags))
        prior_locations = set(meta.copies()) if overwrite else set()
        meta.checksum = content_checksum(data)
        action = Action(
            kind=INSERT,
            key=key,
            meta=meta,
            tier=instance.tiers.first().name if len(instance.tiers) else None,
            data=data,
        )
        try:
            instance.control.dispatch_action(action, ctx)
            if meta.alias_of is None and not action.placed:
                # No Store/StoreOnce rule claimed placement.  New objects
                # get the default placement (first-declared tier — the
                # implicit "insert.into tier1" that Figure 4's
                # write-through reacts to); overwritten objects are
                # refreshed wherever they already live, minus tiers a
                # reactive copy just wrote.
                if prior_locations:
                    stale = sorted(prior_locations - action.stored_in)
                    if stale:
                        instance.write_fanout(key, data, stale, ctx)
                elif instance.tiers.first().name not in action.stored_in:
                    self._default_store(action, ctx)
                # The default placement changed tier occupancy after the
                # dispatch-time check: give threshold rules another look.
                instance.control.evaluate_thresholds(ctx, action=action)
        except Exception:
            if not overwrite and not meta.copies():
                instance._drop_meta(key)  # a new key no tier took: no row
            raise
        # Inside _apply_op's write-back scope create_object noted the
        # row and every later change notes it again: leaving the scope
        # writes its final state.
        return meta

    def _default_store(self, action: Action, ctx: RequestContext) -> None:
        """No rule placed the object: put it in the first-declared tier,
        making room down the eviction chain if one is configured."""
        instance = self.instance
        instance.write_fanout(
            action.key, action.data or b"", (instance.tiers.first().name,), ctx
        )

    def _get(
        self, key: str, ctx: RequestContext, prefer: Optional[str]
    ) -> bytes:
        """Retrieve an object's content.

        Compression applied by a ``compress`` response is transparent —
        GET inflates.  Encryption is *not* transparent (the application
        owns the key; install a ``decrypt`` response or call it
        explicitly), so encrypted objects come back as stored.
        """
        instance = self.instance
        meta = instance.meta(key)
        action = Action(kind=GET, key=key, meta=meta)
        instance.control.dispatch_action(action, ctx)
        data = instance.read_raw(key, ctx, prefer=prefer)
        meta.touch(self.clock.now())
        physical_meta = meta if meta.alias_of is None else instance.meta(
            instance.resolve_alias(key)
        )
        if physical_meta.compressed and not physical_meta.encrypted:
            # Encrypted objects come back as stored: the ciphertext
            # wraps the compressed bytes, and only a decrypt response
            # (which holds the key) can peel it off.
            data = zlib.decompress(data)
        return data

    def _delete(self, key: str, ctx: RequestContext) -> None:
        instance = self.instance
        meta = instance.meta(key)
        action = Action(kind=DELETE, key=key, meta=meta)
        instance.control.dispatch_action(action, ctx)
        if instance.has_object(key):
            instance.delete_object(key, ctx)

    # -- batch verbs ---------------------------------------------------------

    def execute_batch(
        self,
        ops: Sequence[BatchOp],
        *,
        parallelism: int = api.DEFAULT_PARALLELISM,
        ctx: Optional[RequestContext] = None,
        trace: bool = False,
    ) -> BatchResult:
        """Run a batch of independent operations, overlapped in virtual
        time across ``parallelism`` concurrent lanes
        (:func:`repro.core.api.schedule_lanes`), inside the one batch
        bracket (:func:`repro.core.api.run_batch`).

        Results come back in submission order; item failures are
        captured in their envelopes (the batch's ``code`` is
        ``PARTIAL_FAILURE``), never raised.  The only raise is
        :class:`~repro.core.errors.BackpressureError`, *before* any item
        runs, when admission control refuses the batch.
        """
        return api.run_batch(
            ops, parallelism, self._ctx(ctx), trace,
            self.obs, self.admission, self.run_items,
        )

    def run_items(self, ops: Sequence[BatchOp], lanes: int, ctx, parent):
        """What this façade does inside the batch bracket: schedule the
        items on this instance.  A router runs each item of its batches
        as one client op on the owner instead, so a shard counts no
        batch of a router's; the router's own hub does."""
        results = api.schedule_lanes(ops, lanes, ctx, parent, self._run_op)
        return results, {"parallelism": lanes}

    # -- introspection ---------------------------------------------------------

    def health(self) -> Dict[str, object]:
        """A liveness/dirt summary the watchdog and RPC layer can query.

        Surfaces what used to be invisible: background policy failures
        (``ControlLayer.background_errors``), per-tier availability, and
        the audit log's error tally.
        """
        instance = self.instance
        control = instance.control
        res = instance.resilience
        tiers = []
        for tier in instance.tiers:
            entry = {
                "name": tier.name,
                "kind": tier.kind,
                "used": tier.used,
                "capacity": tier.capacity,
                "available": tier.available,
                "node": tier.service.node.name,
                "zone": tier.service.node.zone.name,
            }
            if res is not None:
                entry["breaker"] = res.breaker(tier.name).state
                entry["pending_repairs"] = res.repair_queue.pending(tier.name)
            tiers.append(entry)
        errors = control.background_errors
        status = "ok"
        if any(not t["available"] for t in tiers) or any(
            t.get("breaker") == "open" for t in tiers
        ):
            status = "degraded"
        elif errors:
            status = "dirty"
        out = {
            "instance": instance.name,
            "time": self.clock.now(),
            "status": status,
            "objects": instance.object_count(),
            "tiers": tiers,
            "rules_fired": dict(control.fired),
            "background_errors": len(errors),
            "recent_background_errors": [
                f"{source}: {type(exc).__name__}: {exc}"
                for source, exc in errors[-5:]
            ],
            "audit_errors": instance.obs.audit.error_count(),
        }
        # These four report their feature-table status as is.
        for name in ("resilience", "durability", "backup", "slo"):
            feature = features.status(self, name)
            if feature.enabled:
                out[name] = feature.state
        verified = out.get("backup", {}).get("last_verified_restore")
        if verified is not None and not verified.get("ok") and status == "ok":
            # The latest restore drill failed: the instance serves
            # fine but its recoverability claim is broken.
            out["status"] = "dirty"
        if out.get("slo", {}).get("alerting") and status == "ok":
            out["status"] = "degraded"
        heat = self.obs.heat
        if heat.enabled:
            # Hot-key detail stays in the heat summary action; health
            # carries the workload-shape headline only.
            out["heat"] = dict(
                heat.global_stats(), hot_keys=heat.hot_keys()
            )
        if instance.placement is not None:
            status_doc = instance.placement.status()
            out["placement"] = {
                key: status_doc[key]
                for key in (
                    "running", "objective", "interval", "cycles",
                    "moves", "bytes_moved", "last_cycle",
                )
            }
        return out

    def last_trace(self):
        """The most recently completed request trace (or ``None``)."""
        return self.obs.tracer.last()

    # -- metadata operations ---------------------------------------------------

    def contains(self, key: str) -> bool:
        return self.instance.has_object(key)

    def stat(self, key: str) -> ObjectMeta:
        return self.instance.meta(key)

    def add_tag(self, key: str, tag: str) -> None:
        """Tags add structure to the namespace and define object classes
        that policies target (§2.1)."""
        meta = self.instance.meta(key)
        meta.tags.add(tag)
        self.instance.persist_meta(meta)

    def remove_tag(self, key: str, tag: str) -> None:
        meta = self.instance.meta(key)
        meta.tags.discard(tag)
        self.instance.persist_meta(meta)

    def keys_with_tag(self, tag: str) -> List[str]:
        return sorted(
            meta.key for meta in self.instance.iter_meta() if tag in meta.tags
        )

    def keys(self) -> List[str]:
        return sorted(meta.key for meta in self.instance.iter_meta())

    def __repr__(self) -> str:
        return f"<TieraServer over {self.instance!r}>"
