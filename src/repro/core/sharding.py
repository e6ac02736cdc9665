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
from repro.core.cluster import UNREPLICATED, ClusterConfig, ClusterManager
from repro.core.errors import EmptyRingError, TieraError
from repro.core.server import TieraServer
from repro.obs.hub import Observability
from repro.simcloud.resources import RequestContext

VNODES = 64  # virtual nodes per shard for even key spread


def _ring_position(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")


class ConsistentHashRing:
    """A classic consistent-hash ring with virtual nodes."""

    def __init__(self):
        self._points: List[Tuple[int, str]] = []  # sorted (position, shard)
        self._shards: set = set()

    def add(self, shard: str) -> None:
        if shard in self._shards:
            raise ValueError(f"shard {shard!r} already on the ring")
        self._shards.add(shard)
        for v in range(VNODES):
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

    def _successor(self, key: str) -> int:
        """Index of the first ring point clockwise from ``key``."""
        if not self._points:
            raise EmptyRingError("the ring has no shards")
        index = bisect.bisect_right(
            self._points, (_ring_position(key), chr(0x10FFFF))
        )
        return index % len(self._points)

    def owner(self, key: str) -> str:
        return self._points[self._successor(key)][1]

    def owners(self, key: str, n: int) -> List[str]:
        """The first ``n`` *distinct* shards clockwise from the key's
        ring position — the key's replica set (capped at the shard
        count).  ``owners(key, 1)[0] == owner(key)``."""
        index = self._successor(key)
        n = min(n, len(self._shards))
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
    whose instance runs its own policy.  The data path and membership
    are ``router.cluster``'s, a :class:`~repro.core.cluster.ClusterManager`,
    at every replication factor: every data verb below is one call into
    it, and adding or removing a shard is a journaled, crash-safe
    migration of exactly the keys whose ring owners changed
    (docs/CLUSTER.md).  By default a key has one owner, whose envelope
    a client op returns.

    Built with ``replication=ClusterConfig(...)``, the data path becomes
    replicated and self-healing: R copies per key, quorum writes,
    checksum-verified failover reads, hinted handoff and key-by-key
    anti-entropy, with the heartbeat and anti-entropy timers armed.
    """

    def __init__(
        self,
        shards: Dict[str, TieraServer],
        max_inflight: int = api.DEFAULT_MAX_INFLIGHT,
        replication: Optional[ClusterConfig] = None,
        journal_store=None,
    ):
        if not shards:
            raise ValueError("need at least one shard")
        self.ring = ConsistentHashRing()
        self.shards: Dict[str, TieraServer] = {}
        for name, server in shards.items():
            self.shards[name] = server
            self.ring.add(name)
        first = next(iter(self.shards.values()))
        self.clock = first.clock
        # The router owns its hub: its client requests close there, once
        # each, apart from the replica requests its shards close on
        # theirs; per-shard routing shows up under
        # ``tiera_cluster_replica_ops_total{shard=...}``.
        self.obs = Observability(self.clock)
        self.admission = AdmissionController(max_inflight, self.obs.metrics)
        #: the data path, membership and migration at every R (the
        #: feature table's ``cluster`` entry and the drills reach it by
        #: this name).
        self.cluster = ClusterManager(
            self, replication or UNREPLICATED, journal_store=journal_store
        )
        if replication is not None:
            self.cluster.start()

    @property
    def migrations(self) -> int:
        """Objects moved by add/remove-shard so far."""
        return self.cluster.migrations

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
        return self.cluster.put_object(
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
        return self.cluster.get_object(
            key, prefer=prefer, ctx=ctx, trace=trace
        )

    def delete_object(
        self,
        key: str,
        *,
        ctx: Optional[RequestContext] = None,
        trace: bool = False,
    ) -> OpResult:
        return self.cluster.delete_object(key, ctx=ctx, trace=trace)

    def execute_batch(
        self,
        ops: Sequence[BatchOp],
        *,
        parallelism: int = api.DEFAULT_PARALLELISM,
        ctx: Optional[RequestContext] = None,
        trace: bool = False,
    ) -> BatchResult:
        """Run a batch split by ring owner, each owner's group on its own
        branch (:meth:`ClusterManager.execute_batch`), inside
        :func:`repro.core.api.run_batch` under this router's admission
        and tracer."""
        return self.cluster.execute_batch(
            ops, parallelism=parallelism, ctx=ctx, trace=trace
        )

    def contains(self, key: str) -> bool:
        return self.cluster.contains(key)

    def stat(self, key: str):
        return self.cluster.stat(key)

    def keys(self) -> List[str]:
        seen = set()
        for server in self.shards.values():
            seen.update(server.keys())
        return sorted(seen)

    def keys_with_tag(self, tag: str) -> List[str]:
        seen = set()
        for server in self.shards.values():
            seen.update(server.keys_with_tag(tag))
        return sorted(seen)

    def add_tag(self, key: str, tag: str) -> None:
        self._retag("add_tag", key, tag)

    def remove_tag(self, key: str, tag: str) -> None:
        self._retag("remove_tag", key, tag)

    def _retag(self, verb: str, key: str, tag: str) -> None:
        """Apply a tag verb on every owner replica holding ``key``."""
        self.stat(key)  # NoSuchObject for a missing key, as on one instance
        for name in self.cluster.owners(key):
            if self.shards[name].contains(key):
                getattr(self.shards[name], verb)(key, tag)

    def shard_of(self, key: str) -> str:
        return self.ring.owner(key)

    def object_counts(self) -> Dict[str, int]:
        return {
            name: server.instance.object_count()
            for name, server in self.shards.items()
        }

    def health(self) -> Dict[str, object]:
        """Router-level liveness summary: per-shard status, the cluster
        layer's detector/hints/journal view and the router's SLOs."""
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
            "migrations": self.migrations,
            "cluster": self.cluster.summary(),
        }
        if any(state != "up" for state in out["cluster"]["shards"].values()):
            out["status"] = "degraded"
        slo = self.feature_status("slo")
        if slo.enabled:
            # The router's own objectives, over its client requests.
            out["slo"] = slo.state
            if slo.state["alerting"]:
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

    def _manage(self, feature: str, call, action=None) -> ManagementResult:
        """Run a :class:`ManagementAPI` verb on every shard and fold the
        envelopes by the feature table's rule (one shard: unchanged, so
        the parity suite can compare it with the direct façade; several:
        see :func:`repro.core.features.merge_shards`).  Router-level
        features (the cluster, the SLOs) are answered here instead, and
        an action whose state lives on the obs hub asks only the first
        shard of each distinct hub."""
        spec = features.FEATURES.get(feature)
        if spec is not None and spec.router_level:
            return call(self, None)
        names = tuple(sorted(self.shards))
        act = features.action_spec(feature, action) if action else None
        hubs = [self.shards[name].obs for name in names]
        return features.merge_shards([
            (name, call(
                self.shards[name],
                features.Shard(name, names) if len(names) > 1 else None,
            ))
            for i, name in enumerate(names)
            if not (act and act.on_hub) or hubs.index(hubs[i]) == i
        ])

    # -- elasticity ---------------------------------------------------------

    def add_shard(self, name: str, server: TieraServer) -> int:
        """Join a shard and migrate the keys it now owns; returns the
        number of objects moved (:meth:`ClusterManager.add_shard`)."""
        if name in self.shards:
            raise ValueError(f"shard {name!r} already in the cluster")
        return self.cluster.add_shard(name, server)

    def remove_shard(self, name: str) -> int:
        """Drain and remove a shard; returns the objects moved off it."""
        if name not in self.shards:
            raise KeyError(f"no shard {name!r}")
        if len(self.shards) == 1:
            raise TieraError("cannot remove the last shard")
        return self.cluster.remove_shard(name)
