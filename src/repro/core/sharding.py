"""Horizontally scaled Tiera (extension: paper §6 future work).

"We also plan to employ horizontal scaling to scale [the] Tiera control
layer to be able to store very large number of objects … A distributed
control layer architecture also provides metadata management
scalability and better fault tolerance."

:class:`ShardedTieraServer` partitions the key space across several
independent Tiera instances (each with its own tiers, policy, and
metadata) using a consistent-hash ring, the technique of the Dynamo /
Cassandra line of systems the paper cites.  Shards can be added and
removed at runtime; only the keys that change owner move.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import api, features
from repro.core.api import (
    AdmissionController,
    BatchOp,
    BatchResult,
    BatchVerbs,
    ManagementResult,
    OpResult,
)
from repro.core.cluster import ClusterConfig, ClusterManager
from repro.core.errors import EmptyRingError, TieraError
from repro.core.server import TieraServer
from repro.obs.hub import Observability
from repro.simcloud.resources import RequestContext

VNODES = 64  # virtual nodes per shard for even key spread


def _ring_position(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")


class ConsistentHashRing:
    """A classic consistent-hash ring with virtual nodes."""

    def __init__(self, vnodes: int = VNODES):
        self.vnodes = vnodes
        self._points: List[Tuple[int, str]] = []  # sorted (position, shard)
        self._shards: set = set()

    def add(self, shard: str) -> None:
        if shard in self._shards:
            raise ValueError(f"shard {shard!r} already on the ring")
        self._shards.add(shard)
        for v in range(self.vnodes):
            point = (_ring_position(f"{shard}#{v}"), shard)
            bisect.insort(self._points, point)

    def remove(self, shard: str) -> None:
        if shard not in self._shards:
            raise KeyError(f"no shard {shard!r}")
        if len(self._shards) == 1:
            # Fail at the mutation, not at the next owner() lookup: an
            # empty ring can route nothing.
            raise EmptyRingError(
                f"removing {shard!r} would leave the ring empty"
            )
        self._shards.discard(shard)
        self._points = [p for p in self._points if p[1] != shard]

    def owner(self, key: str) -> str:
        if not self._points:
            raise EmptyRingError("the ring has no shards")
        position = _ring_position(key)
        index = bisect.bisect_right(self._points, (position, chr(0x10FFFF)))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    def owners(self, key: str, n: int) -> List[str]:
        """The first ``n`` *distinct* shards clockwise from the key's
        ring position — the key's replica set (capped at the shard
        count).  ``owners(key, 1)[0] == owner(key)``."""
        if not self._points:
            raise EmptyRingError("the ring has no shards")
        n = min(n, len(self._shards))
        position = _ring_position(key)
        index = bisect.bisect_right(self._points, (position, chr(0x10FFFF)))
        out: List[str] = []
        for step in range(len(self._points)):
            shard = self._points[(index + step) % len(self._points)][1]
            if shard not in out:
                out.append(shard)
                if len(out) == n:
                    break
        return out

    def shards(self) -> List[str]:
        return sorted(self._shards)


class ShardedTieraServer(BatchVerbs, features.ManagementVerbs):
    """PUT/GET over a consistent-hash ring of Tiera instances.

    Each shard is an ordinary :class:`~repro.core.server.TieraServer`
    whose instance runs its own policy; by default the sharding layer
    only routes.  Adding or removing a shard triggers a minimal
    migration: exactly the keys whose ring owner changed are moved.

    Built with ``replication=ClusterConfig(...)``, the router grows a
    :class:`~repro.core.cluster.ClusterManager` and the data path
    becomes replicated and self-healing: R copies per key, quorum
    writes, checksum-verified failover reads, hinted handoff, Merkle
    anti-entropy, and journaled crash-safe migration (docs/CLUSTER.md).
    """

    def __init__(
        self,
        shards: Dict[str, TieraServer],
        vnodes: int = VNODES,
        max_inflight: int = api.DEFAULT_MAX_INFLIGHT,
        obs: Optional[Observability] = None,
        replication: Optional[ClusterConfig] = None,
        journal_store=None,
    ):
        if not shards:
            raise ValueError("need at least one shard")
        self.ring = ConsistentHashRing(vnodes=vnodes)
        self.shards: Dict[str, TieraServer] = {}
        for name, server in shards.items():
            self.shards[name] = server
            self.ring.add(name)
        first = next(iter(self.shards.values()))
        self.clock = first.clock
        # The router gets its own hub (or an explicitly shared one) so
        # routed traffic no longer pollutes the first shard's metrics
        # and traces; per-shard routing shows up under
        # ``tiera_shard_ops_total{shard=...}``.
        self.obs = obs if obs is not None else Observability(self.clock)
        self._shard_ops = self.obs.metrics.counter(
            "tiera_shard_ops_total", "Operations routed, by shard and op."
        )
        self.admission = AdmissionController(max_inflight)
        self._backpressure = self.obs.metrics.counter(
            "tiera_backpressure_total",
            "Requests refused by admission control.",
        )
        self.migrations = 0
        self.cluster: Optional[ClusterManager] = None
        if replication is not None:
            self.cluster = ClusterManager(
                self, replication, journal_store=journal_store
            )
            self.cluster.start()

    def _shard_for(self, key: str) -> TieraServer:
        return self.shards[self.ring.owner(key)]

    def admit(self, count: int) -> None:
        """Admission for a whole batch at the router, refusals counted
        like :meth:`TieraServer.execute_batch` counts its own."""
        try:
            self.admission.acquire(count)
        except TieraError:
            self._backpressure.inc(op="batch")
            raise

    def _route(self, key: str, op: str) -> TieraServer:
        shard = self.ring.owner(key)
        self._shard_ops.inc(shard=shard, op=op)
        return self.shards[shard]

    # -- the StorageAPI surface, routed -------------------------------------

    def put_object(
        self,
        key: str,
        data: bytes,
        *,
        tags: Optional[List[str]] = None,
        ctx: Optional[RequestContext] = None,
        trace: bool = False,
    ) -> OpResult:
        if self.cluster is not None:
            return self.cluster.put_object(
                key, data, tags=tags, ctx=ctx, trace=trace
            )
        return self._route(key, api.PUT).put_object(
            key, data, tags=tags, ctx=ctx, trace=trace
        )

    def get_object(
        self,
        key: str,
        *,
        prefer: Optional[str] = None,
        ctx: Optional[RequestContext] = None,
        trace: bool = False,
    ) -> OpResult:
        if self.cluster is not None:
            return self.cluster.get_object(
                key, prefer=prefer, ctx=ctx, trace=trace
            )
        return self._route(key, api.GET).get_object(
            key, prefer=prefer, ctx=ctx, trace=trace
        )

    def delete_object(
        self,
        key: str,
        *,
        ctx: Optional[RequestContext] = None,
        trace: bool = False,
    ) -> OpResult:
        if self.cluster is not None:
            return self.cluster.delete_object(key, ctx=ctx, trace=trace)
        return self._route(key, api.DELETE).delete_object(
            key, ctx=ctx, trace=trace
        )

    def execute_batch(
        self,
        ops: Sequence[BatchOp],
        *,
        parallelism: int = api.DEFAULT_PARALLELISM,
        ctx: Optional[RequestContext] = None,
        trace: bool = False,
    ) -> BatchResult:
        """Fan a batch out to the shards that own its keys.

        Ops group by ring owner (preserving submission indices), each
        shard runs its sub-batch on its own branch of a scatter/join —
        shards are independent instances, so the router pays the slowest
        shard, not the sum — and results reassemble into submission
        order.  Admission is enforced at the router on the whole batch
        before any shard sees work.  With tracing on, the router opens
        the batch root and a ``shard`` child per sub-batch; each shard's
        per-item ``op`` spans nest under its shard span.
        """
        if self.cluster is not None:
            return self.cluster.execute_batch(
                ops, parallelism=parallelism, ctx=ctx, trace=trace
            )
        ops = list(ops)
        if parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        ctx = ctx if ctx is not None else RequestContext(self.clock)
        self.admit(len(ops))
        root = self.obs.tracer.start_request(
            "batch", f"{len(ops)} ops", ctx, force=trace
        )
        started = ctx.time
        try:
            groups: Dict[str, List[Tuple[int, BatchOp]]] = {}
            for index, op in enumerate(ops):
                owner = self.ring.owner(op.key)
                self._shard_ops.inc(shard=owner, op=op.op)
                groups.setdefault(owner, []).append((index, op))
            results: List[Optional[OpResult]] = [None] * len(ops)
            branches = ctx.scatter()
            for shard_name in sorted(groups):
                sub = groups[shard_name]
                bctx = branches.branch()
                span = None
                if root is not None:
                    span = root.child(
                        shard_name, "shard", bctx.time,
                        shard=shard_name, items=len(sub),
                    )
                    bctx.span = span
                sub_result = self.shards[shard_name].execute_batch(
                    [op for _, op in sub],
                    parallelism=parallelism,
                    ctx=bctx,
                )
                if span is not None:
                    span.finish(bctx.time)
                    bctx.span = None
                for (index, _), item in zip(sub, sub_result.results):
                    results[index] = item
            branches.join()
        finally:
            self.admission.release(len(ops))
        if root is not None:
            root.attrs["items"] = len(ops)
            root.attrs["shards"] = len(groups)
        self.obs.tracer.finish_request(root, ctx)
        return BatchResult(
            results=results,
            latency=ctx.time - started,
            parallelism=min(parallelism, max(1, len(ops))),
        )

    def contains(self, key: str) -> bool:
        if self.cluster is not None:
            return self.cluster.contains(key)
        return self._shard_for(key).contains(key)

    def stat(self, key: str):
        if self.cluster is not None:
            return self.cluster.stat(key)
        return self._shard_for(key).stat(key)

    def keys(self) -> List[str]:
        seen = set()
        for server in self.shards.values():
            seen.update(server.keys())
        return sorted(seen)

    def shard_of(self, key: str) -> str:
        return self.ring.owner(key)

    def object_counts(self) -> Dict[str, int]:
        return {
            name: server.instance.object_count()
            for name, server in self.shards.items()
        }

    def health(self) -> Dict[str, object]:
        """Router-level liveness summary: per-shard status plus (when
        replication is on) the cluster layer's detector/hints/journal
        view."""
        shard_health: Dict[str, object] = {}
        status = "ok"
        for name in sorted(self.shards):
            entry = self.shards[name].health()
            shard_health[name] = {
                "status": entry["status"],
                "objects": entry["objects"],
            }
            if entry["status"] != "ok" and status == "ok":
                status = "degraded"
        out: Dict[str, object] = {
            "time": self.clock.now(),
            "status": status,
            "shards": shard_health,
            "migrations": self.migrations
            if self.cluster is None else self.cluster.migrations,
        }
        if self.cluster is not None:
            summary = self.cluster.summary()
            out["cluster"] = summary
            if any(state != "up" for state in summary["shards"].values()):
                out["status"] = "degraded"
        heat = self.invoke("heat", "summary").state
        if heat.get("enabled"):
            out["heat"] = {
                "accesses": heat["accesses"]["total"],
                "tracked": heat["tracked_objects"],
                "hot_keys": heat["hot_keys"],
                "skew": heat["skew"],
                "churn": heat["churn"],
            }
        return out

    # -- unified management API ----------------------------------------------

    def _manage(self, feature: str, call) -> ManagementResult:
        """Run a :class:`ManagementAPI` verb on every shard and fold the
        envelopes by the feature table's rule (one shard: unchanged, so
        the parity suite can compare it with the direct façade; several:
        see :func:`repro.core.features.merge_shards`).  Router-level
        features (the replicated cluster) are answered here instead."""
        spec = features.FEATURES.get(feature)
        if spec is not None and spec.router_level:
            return call(self, None)
        names = tuple(sorted(self.shards))
        return features.merge_shards([
            (name, call(
                self.shards[name],
                features.Shard(name, names) if len(names) > 1 else None,
            ))
            for name in names
        ])

    # -- elasticity ---------------------------------------------------------

    def add_shard(self, name: str, server: TieraServer) -> int:
        """Join a shard and migrate the keys it now owns; returns the
        number of objects moved.  With replication on, the migration is
        journaled and crash-safe (see ClusterManager.add_shard)."""
        if self.cluster is not None:
            return self.cluster.add_shard(name, server)
        before = {key: self.ring.owner(key) for key in self.keys()}
        self.shards[name] = server
        self.ring.add(name)
        return self._migrate(before)

    def remove_shard(self, name: str) -> int:
        """Drain and remove a shard; returns the objects moved off it."""
        if self.cluster is not None:
            moved = self.cluster.remove_shard(name)
            self.migrations = self.cluster.migrations
            return moved
        if name not in self.shards:
            raise KeyError(f"no shard {name!r}")
        if len(self.shards) == 1:
            raise TieraError("cannot remove the last shard")
        departing = self.shards[name]
        keys = departing.keys()
        self.ring.remove(name)
        moved = 0
        for key in keys:
            data = departing.get_object(key).raise_for_error().value
            meta = departing.stat(key)
            target = self.shards[self.ring.owner(key)]
            target.put_object(key, data, tags=sorted(meta.tags)).raise_for_error()
            departing.delete_object(key).raise_for_error()
            moved += 1
        del self.shards[name]
        self.migrations += moved
        return moved

    def _migrate(self, previous_owners: Dict[str, str]) -> int:
        moved = 0
        for key, old_owner in previous_owners.items():
            new_owner = self.ring.owner(key)
            if new_owner == old_owner:
                continue
            source = self.shards[old_owner]
            fetched = source.get_object(key)
            if not fetched.ok:
                continue
            meta = source.stat(key)
            self.shards[new_owner].put_object(
                key, fetched.value, tags=sorted(meta.tags)
            ).raise_for_error()
            source.delete_object(key).raise_for_error()
            moved += 1
        self.migrations += moved
        return moved
