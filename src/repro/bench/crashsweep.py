"""The "crash everywhere" sweep: kill at every boundary, reopen, verify.

For a deployment and seed, a *reference run* executes a scripted
PUT/GET/overwrite/delete/evict/write-back/compact workload with an
unarmed :class:`~repro.simcloud.faults.CrashPointInjector`, recording
the durable state digest at every crash-point visit.  Then, for each
visit, a fresh same-seed run is armed to die exactly there; the harness
simulates the crash (volatile tiers lost, background work cancelled),
boots a successor instance over the surviving metadata store, runs
durability recovery, and verifies three invariants:

1. **fsck clean** — a post-recovery scrub reports zero findings (no
   orphans, ghosts, dangling aliases, checksum mismatches, lost
   objects, or under-replication).
2. **boundary state** — the recovered durable digest equals one the
   reference run observed at a crash-point boundary: the crash landed
   on a primitive-operation edge, never in between.
3. **acked durability** (write-through only) — every object a
   durable-by-policy PUT acknowledged before the crash survives with
   the acknowledged bytes.  The single un-acked operation in flight at
   crash time is exempt: it may legitimately land on either side of the
   boundary.  The writeback deployment skips this check:
   its policy *declares* a loss window (memcached-first, timer-flushed),
   which is Figure 13's durability trade-off, not a bug.

The report is JSON-able and byte-identical across same-seed runs —
that is what the CI ``crash-matrix`` job diffs.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

from repro.core.durability import fsck, reopen_instance, simulate_crash
from repro.core.events import ActionEvent, TimerEvent
from repro.core.instance import TieraInstance
from repro.core.policy import Policy, Rule
from repro.core.responses import Copy, SetAttr, Store
from repro.core.selectors import InsertObject
from repro.core.server import TieraServer
from repro.core.templates import dirty_in
from repro.core.units import parse_size
from repro.simcloud.cluster import Cluster
from repro.simcloud.errors import ProcessCrash
from repro.simcloud.faults import CrashPointInjector
from repro.simcloud.resources import RequestContext
from repro.tiers.registry import TierRegistry

#: The two deployments the sweep (and the CI crash-matrix job) covers:
#: write-through acks only after the durable tier holds the bytes;
#: writeback is the memcached-first / timer-flush shape with an
#: eviction chain, so the sweep crosses copy/evict/move boundaries too.
DEPLOYMENTS = ("write-through", "writeback")

#: Object size in the scripted workload.  The writeback cache tier holds
#: exactly three of these, so the fourth PUT forces an eviction.
PAYLOAD_BYTES = 4096

#: Writeback flush timer period (seconds, virtual).
FLUSH_PERIOD = 30.0


def _payload(seed: int, key: str, version: int) -> bytes:
    stamp = hashlib.sha256(f"{seed}:{key}:{version}".encode()).digest()
    return (stamp * (PAYLOAD_BYTES // len(stamp) + 1))[:PAYLOAD_BYTES]


def _rules(deployment: str) -> List[Rule]:
    if deployment == "write-through":
        return [
            Rule(
                ActionEvent("insert"),
                [Store(InsertObject(), ("tier1", "tier2"))],
                name="write-through",
            ),
        ]
    if deployment == "writeback":
        return [
            Rule(
                ActionEvent("insert"),
                [
                    SetAttr(("insert", "object", "dirty"), True),
                    Store(InsertObject(), "tier1"),
                ],
                name="cache-insert",
            ),
            Rule(
                TimerEvent(FLUSH_PERIOD),
                [Copy(dirty_in("tier1"), "tier2")],
                name="flush-dirty",
            ),
        ]
    raise ValueError(
        f"unknown deployment {deployment!r}; pick one of {DEPLOYMENTS}"
    )


def _chain(deployment: str) -> Dict[str, str]:
    return {"tier1": "tier2"} if deployment == "writeback" else {}


def _tiers(registry: TierRegistry, deployment: str):
    if deployment == "write-through":
        specs = [("tier1", "Memcached", "64M"), ("tier2", "EBS", "64M")]
    else:
        # Three payloads fit tier1; the fourth PUT evicts down the chain.
        specs = [
            ("tier1", "Memcached", str(3 * PAYLOAD_BYTES)),
            ("tier2", "EBS", "64M"),
        ]
    return [
        registry.create(product, tier_name=name, size=parse_size(size))
        for name, product, size in specs
    ]


def _boot(
    deployment: str,
    seed: int,
    metadata_store,
    injector: Optional[CrashPointInjector],
):
    """A fresh seeded cluster + instance over ``metadata_store``."""
    cluster = Cluster(seed=seed)
    registry = TierRegistry(cluster)
    tiers = _tiers(registry, deployment)
    instance = TieraInstance(
        name=f"crash-{deployment}",
        tiers=tiers,
        policy=Policy(_rules(deployment)),
        clock=cluster.clock,
        metadata_store=metadata_store,
    )
    instance.eviction_chain.update(_chain(deployment))
    instance.enable_durability()
    instance.crash_points = injector
    server = TieraServer(instance)
    return cluster, instance, server, tiers


def _workload(
    cluster,
    instance,
    server,
    seed: int,
    acked: List[Tuple],
    attempted: Optional[List[Tuple]] = None,
):
    """The scripted PUT/GET/overwrite/delete/evict/flush/compact script.

    ``acked`` collects each completed (acknowledged) operation in order;
    a crash mid-script leaves exactly the completed prefix, which the
    durability check replays to compute what must have survived.
    ``attempted`` additionally records each mutating operation *before*
    it starts: at most one entry beyond ``acked`` exists after a crash —
    the in-flight operation, whose outcome may legitimately be either
    its pre- or post-state.
    """
    clock = cluster.clock
    if attempted is None:
        attempted = []

    def pump(ctx: RequestContext) -> None:
        if ctx.time > clock.now():
            clock.run_until(ctx.time)

    def put(key: str, version: int) -> None:
        attempted.append(("put", key, version))
        ctx = RequestContext(clock)
        server.put_object(key, _payload(seed, key, version), ctx=ctx).raise_for_error()
        pump(ctx)
        acked.append(("put", key, version))

    def get(key: str) -> None:
        ctx = RequestContext(clock)
        server.get_object(key, ctx=ctx).raise_for_error()
        pump(ctx)

    def delete(key: str) -> None:
        attempted.append(("delete", key, 0))
        ctx = RequestContext(clock)
        server.delete_object(key, ctx=ctx).raise_for_error()
        pump(ctx)
        acked.append(("delete", key, 0))

    for i in range(4):
        put(f"obj{i:02d}", 0)          # writeback: 4th PUT evicts obj00
    get("obj01")
    put("obj02", 1)                    # overwrite (version bump)
    delete("obj01")
    clock.run_until(clock.now() + FLUSH_PERIOD * 1.5)   # timer flush fires
    put("obj04", 0)                    # more evictions in writeback
    put("obj05", 0)
    get("obj00")
    instance.durability.checkpoint()   # compact boundary
    clock.run_until(clock.now() + FLUSH_PERIOD * 1.5)   # second flush


def _reference(deployment: str, seed: int) -> Dict[str, object]:
    """Uncrashed run: the crash-point schedule and per-boundary digests."""
    from repro.kvstore import MemoryStore

    holder: Dict[str, TieraInstance] = {}
    digests: List[str] = []

    def on_hit(index: int, point: str) -> None:
        digests.append(holder["instance"].state_digest(durable_only=True))

    injector = CrashPointInjector(on_hit=on_hit)
    cluster, instance, server, _ = _boot(
        deployment, seed, MemoryStore(), injector
    )
    holder["instance"] = instance
    acked: List[Tuple] = []
    _workload(cluster, instance, server, seed, acked)
    final_durable = instance.state_digest(durable_only=True)
    digests.append(final_durable)
    return {
        "schedule": list(injector.schedule),
        "digests": digests,
        "acked_ops": len(acked),
        "final_digest": instance.state_digest(),
        "final_durable_digest": final_durable,
        "fsck_clean": fsck(instance)["clean"],
    }


def _surviving_bytes(instance: TieraInstance, key: str) -> Optional[bytes]:
    """The object's bytes from its first durable recorded copy (raw
    service read: no virtual time, no LRU perturbation)."""
    meta = instance._meta.get(key)
    if meta is None:
        return None
    for tier in instance.tiers.ordered():
        if tier.durable and tier.name in meta.locations and tier.contains(key):
            return tier.service._data[key]
    return None


def _sweep_point(
    deployment: str,
    seed: int,
    index: int,
    point: str,
    reference_digests: frozenset,
    verify_acked: bool,
) -> Dict[str, object]:
    """Crash one same-seed run at visit ``index``, reopen, verify."""
    from repro.kvstore import MemoryStore

    store = MemoryStore()
    injector = CrashPointInjector().arm_index(index)
    cluster, instance, server, tiers = _boot(deployment, seed, store, injector)
    acked: List[Tuple] = []
    attempted: List[Tuple] = []
    crashed = False
    try:
        _workload(cluster, instance, server, seed, acked, attempted)
    except ProcessCrash:
        crashed = True
    if crashed:
        simulate_crash(instance)
    successor, recovery = reopen_instance(
        name=f"crash-{deployment}",
        tiers=tiers,
        policy=Policy(_rules(deployment)),
        clock=cluster.clock,
        metadata_store=store,
        eviction_chain=_chain(deployment),
    )
    scrub = fsck(successor, repair=False)
    recovered = successor.state_digest(durable_only=True)
    acked_lost: List[str] = []
    if verify_acked:
        expected: Dict[str, int] = {}
        for op, key, version in acked:
            if op == "put":
                expected[key] = version
            else:
                expected.pop(key, None)
        # The one un-acked operation in flight at crash time may land on
        # either side of the boundary: an in-flight overwrite may
        # surface the new bytes (recovery rolls the journal forward), an
        # in-flight delete may have removed the object.  Durability only
        # forbids in-between states and losing *acknowledged* data.
        inflight = attempted[len(acked)] if len(attempted) > len(acked) else None
        for key in sorted(expected):
            allowed = {_payload(seed, key, expected[key])}
            if inflight is not None and inflight[1] == key:
                if inflight[0] == "put":
                    allowed.add(_payload(seed, key, inflight[2]))
                elif inflight[0] == "delete":
                    allowed.add(None)
            if _surviving_bytes(successor, key) not in allowed:
                acked_lost.append(key)
    ok = (
        crashed
        and scrub["clean"]
        and recovered in reference_digests
        and not acked_lost
    )
    result = {
        "index": index,
        "point": point,
        "crashed": crashed,
        "fsck_findings": scrub["counts"]["findings"],
        "digest_in_reference": recovered in reference_digests,
        "replayed": len(recovery["replayed"]),
        "incomplete_responses": len(recovery["incomplete_responses"]),
        "recovery_errors": len(recovery["errors"]),
        "acked_lost": acked_lost,
        "ok": ok,
    }
    successor.control.shutdown()
    successor.obs.metrics.remove_collector(successor._collect_gauges)
    return result


def run_crash_sweep(
    deployment: str = "write-through",
    seed: int = 2014,
    max_points: Optional[int] = None,
) -> Dict[str, object]:
    """Sweep every crash point of the scripted workload; see module doc.

    ``max_points`` caps how many boundaries are swept (for quick test
    runs); the report records the cap so truncation is never silent.
    """
    reference = _reference(deployment, seed)
    schedule = list(reference["schedule"])
    swept = schedule if max_points is None else schedule[:max_points]
    reference_digests = frozenset(reference["digests"])
    verify_acked = deployment == "write-through"
    points = [
        _sweep_point(
            deployment, seed, index, point, reference_digests, verify_acked
        )
        for index, point in swept
    ]
    failed = [p for p in points if not p["ok"]]
    return {
        "deployment": deployment,
        "seed": seed,
        "payload_bytes": PAYLOAD_BYTES,
        "reference": {
            "acked_ops": reference["acked_ops"],
            "crash_points": len(schedule),
            "boundary_digests": len(reference_digests),
            "final_digest": reference["final_digest"],
            "final_durable_digest": reference["final_durable_digest"],
            "fsck_clean": reference["fsck_clean"],
        },
        "swept": len(points),
        "truncated_to": max_points,
        "points": points,
        "summary": {
            "ok": len(points) - len(failed),
            "failed": [
                {"index": p["index"], "point": p["point"]} for p in failed
            ],
            "clean": not failed and bool(reference["fsck_clean"]),
        },
    }
