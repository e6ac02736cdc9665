"""The adapter between the harness and the program under test.

The only module of the benchmark that imports ``repro``.  It builds the
five deployments through constructors, the ``StorageAPI`` verbs
(``put_object``/``get_object``/``execute_batch``) and
``ManagementAPI.configure``; names the trace points of each layer; and
reads the few pieces of layer state the per-layer metrics need.  A trace
point or a piece of state that no longer exists is skipped and counted
in ``driver.spans_missing`` — never an error — so a later change can
flatten the path or delete a shim without editing the benchmark.
"""

from __future__ import annotations

import bisect
import importlib
import os
import shutil
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from spans import GET, Recorder

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.core.api import BatchOp  # noqa: E402
from repro.core.cluster import ClusterConfig  # noqa: E402
from repro.core.durability import fsck  # noqa: E402
from repro.core.instance import TieraInstance  # noqa: E402
from repro.core.server import TieraServer  # noqa: E402
from repro.core.sharding import ShardedTieraServer  # noqa: E402
from repro.core.templates import (  # noqa: E402
    high_durability_instance,
    lru_tiered_instance,
    write_through_instance,
)
from repro.kvstore import LogStore  # noqa: E402
from repro.obs.slo import default_slos  # noqa: E402
from repro.rpc.client import TieraClient  # noqa: E402
from repro.rpc.server import TieraRpcServer  # noqa: E402
from repro.simcloud.cluster import Cluster  # noqa: E402
from repro.simcloud.pricing import CostMeter  # noqa: E402
from repro.tiers.registry import TierRegistry  # noqa: E402

#: Layers are module names; each entry is ``module:Class.attr`` or
#: ``module:function``.  Names a module imported *by value* are listed
#: under the importing module, where the call sites look them up.
#:
#: Not traced, on purpose: the server side's ``read_frame`` and
#: ``write_frame``.  The server blocks in ``read_frame`` between
#: requests, so that span would straddle two client ops, and its
#: ``write_frame`` races the client's return from ``_call``.  Both run
#: while the client is blocked in its own ``read_frame``, whose self time
#: therefore carries them — the ``rpc`` layer total is unaffected.
TRACE_POINTS: Dict[str, List[str]] = {
    "rpc": [
        "repro.rpc.client:TieraClient._call",
        "repro.rpc.client:write_frame",
        "repro.rpc.client:read_frame",
        "repro.rpc.client:encode_bytes",
        "repro.rpc.client:decode_bytes",
        "repro.rpc.server:TieraRpcServer._handle",
        "repro.rpc.server:encode_bytes",
        "repro.rpc.server:decode_bytes",
    ],
    "core.sharding": [
        "repro.core.sharding:ShardedTieraServer.put_object",
        "repro.core.sharding:ShardedTieraServer.get_object",
        "repro.core.sharding:ShardedTieraServer.execute_batch",
        "repro.core.sharding:ConsistentHashRing.owner",
        "repro.core.sharding:ConsistentHashRing.owners",
    ],
    "core.cluster": [
        "repro.core.cluster:ClusterManager.put_object",
        "repro.core.cluster:ClusterManager.get_object",
        "repro.core.cluster:ClusterManager.execute_batch",
        "repro.core.cluster:ClusterManager.anti_entropy",
        "repro.core.cluster:ClusterManager.replay_hints",
    ],
    "core.server": [
        "repro.core.server:TieraServer.put_object",
        "repro.core.server:TieraServer.get_object",
        "repro.core.server:TieraServer.execute_batch",
    ],
    "core.control": [
        "repro.core.control:ControlLayer.dispatch_action",
        "repro.core.control:ControlLayer.evaluate_thresholds",
    ],
    "core.instance": [
        "repro.core.instance:TieraInstance.create_object",
        "repro.core.instance:TieraInstance.write_fanout",
        "repro.core.instance:TieraInstance.write_to_tier",
        "repro.core.instance:TieraInstance.read_raw",
        "repro.core.instance:TieraInstance.persist_meta",
        "repro.core.instance:TieraInstance.remove_from_tier",
    ],
    "core.durability": [
        "repro.core.durability:DurabilityLayer.journal_write",
        "repro.core.durability:DurabilityLayer.journal_remove",
        "repro.core.durability:DurabilityLayer.begin_scope",
        "repro.core.durability:DurabilityLayer.commit",
        "repro.core.durability:DurabilityLayer.commit_scope",
        "repro.core.durability:DurabilityLayer.checkpoint",
    ],
    "core.resilience": [
        "repro.core.resilience:ResilienceLayer.guarded_put",
        "repro.core.resilience:ResilienceLayer.guarded_get",
        "repro.core.resilience:ResilienceLayer.attempt",
        "repro.core.resilience:ResilienceLayer.verify",
    ],
    "core.placement": [
        "repro.core.placement:PlacementEngine.plan",
        "repro.core.placement:PlacementEngine.run_cycle",
    ],
    "tiers": [
        "repro.tiers.base:Tier.put",
        "repro.tiers.base:Tier.get",
        "repro.tiers.base:Tier.delete",
    ],
    "simcloud": [
        "repro.simcloud.services.base:StorageService.put",
        "repro.simcloud.services.base:StorageService.get",
        "repro.simcloud.services.base:StorageService.delete",
        # overrides that chain to the base through super()
        "repro.simcloud.services.memcached:SimMemcached.put",
        "repro.simcloud.services.memcached:SimMemcached.get",
        "repro.simcloud.resources:Resource.acquire",
        "repro.simcloud.clock:SimClock.run_until",
        "repro.simcloud.clock:SimClock.schedule",
    ],
    "kvstore": [
        "repro.kvstore.store:MemoryStore.put",
        "repro.kvstore.store:MemoryStore.get",
        "repro.kvstore.store:MemoryStore.delete",
        "repro.kvstore.store:LogStore.put",
        "repro.kvstore.store:LogStore.get",
        "repro.kvstore.store:LogStore.delete",
    ],
    "obs": [
        "repro.obs.trace:Tracer.start_request",
        "repro.obs.trace:Tracer.finish_request",
        "repro.obs.registry:Counter.inc",
        "repro.obs.registry:Histogram.observe",
        "repro.obs.heat:HeatTracker.record",
        "repro.obs.heat:HeatTracker.record_tier",
        "repro.obs.slo:SloEngine.record",
        "repro.obs.profiler:Profiler.section",
    ],
}

#: spans whose every duration is kept (rare and long: medians, not means).
KEEP_DURATIONS = {"PlacementEngine.run_cycle", "ClusterManager.anti_entropy"}

#: key prefix under which journal records ride on the metadata store
#: (``TieraInstance._load_metadata`` skips it for the same reason).
JOURNAL_PREFIX = b"\x00"


def _tally_store_put(tallies: Dict[str, float], args: tuple) -> None:
    """Bytes handed to a KVStore.put, journal records counted apart."""
    if len(args) < 3:
        return
    size = len(args[1]) + len(args[2])
    tallies["store_bytes"] = tallies.get("store_bytes", 0) + size
    if args[1].startswith(JOURNAL_PREFIX):
        tallies["journal_bytes"] = tallies.get("journal_bytes", 0) + size


def install_tracing(recorder: Recorder) -> int:
    """Replace every trace point with a timing wrapper; returns how many
    points could not be found.  Must run before the traced deployment is
    built, so nothing binds an unwrapped method first."""
    missing = 0
    for layer, targets in TRACE_POINTS.items():
        for target in targets:
            module_name, _, path = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                original = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                missing += 1
                continue
            tally = _tally_store_put if path.endswith("Store.put") else None
            setattr(owner, attr, recorder.wrap(
                original, layer, path, tally=tally,
                keep=path in KEEP_DURATIONS,
            ))
    return missing


class CountingSocket:
    """Stand-in for the client's socket that counts wire bytes, whatever
    codec produced them."""

    def __init__(self, sock):
        self._sock = sock
        self.bytes = 0

    def sendall(self, data) -> None:
        self.bytes += len(data)
        self._sock.sendall(data)

    def recv(self, size: int) -> bytes:
        data = self._sock.recv(size)
        self.bytes += len(data)
        return data

    def __getattr__(self, name):
        return getattr(self._sock, name)


def _enable(server, feature: str, fallback: Optional[Callable] = None, **options):
    """Switch a feature on through ``ManagementAPI.configure``; only when
    the façade does not know the feature yet, fall back to the bespoke
    ``instance.enable_<feature>()`` verb."""
    result = server.configure(feature, **options)
    if result.ok:
        return
    if result.error != "UNKNOWN_FEATURE":
        result.raise_for_error()
    if fallback is None:
        fallback = getattr(server.instance, f"enable_{feature}")
    fallback(**options)


def _timed_min_ms(fn: Callable[[], object], repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = perf_counter()
        fn()
        best = min(best, perf_counter() - started)
    return best * 1e3


class Deployment:
    """One built stack behind the narrow interface the driver uses:
    ``put``/``get``/``batch`` return the façade's own envelopes."""

    #: the tier name every template gives its fastest tier.
    fast_tier = "tier1"

    def __init__(self, api, cluster: Cluster, meter: CostMeter,
                 instances: List[TieraInstance], hubs: list,
                 closers: Tuple[Callable[[], None], ...] = (), manager=None):
        self.api = api
        self.put = api.put_object
        self.get = api.get_object
        self.clock = cluster.clock
        self.now = cluster.clock.now
        self.request_usd = meter.request_charges
        self.instances = instances
        self.hubs = hubs
        self.manager = manager    # ClusterManager, on cluster_r3
        self.workdir = ""         # scratch directory, owned by the driver
        self.wire: Optional[CountingSocket] = None
        self._closers = closers   # run in order before the instances shut down
        self.missing = 0          # layer state the probes could not read

    def batch(self, ops) -> Tuple[list, float]:
        result = self.api.execute_batch(
            [
                BatchOp.get(key) if kind == GET else BatchOp.put(key, payload)
                for kind, key, payload in ops
            ],
            parallelism=len(ops),
        )
        return result.results, result.latency

    def advance(self, latency: float) -> None:
        self.clock.run_until(self.clock.now() + latency)

    def close(self) -> None:
        for closer in self._closers:
            closer()
        for instance in self.instances:
            instance.shutdown()

    def count_wire_bytes(self) -> None:
        """Route the RPC client's traffic through a byte counter."""
        client = self.api
        if not isinstance(client, TieraClient):
            return
        if hasattr(client, "_sock"):
            self.wire = client._sock = CountingSocket(client._sock)
        else:
            self.missing += 1

    # -- layer state read between segments and after the window ----------

    def live_bookings(self) -> int:
        """Virtual-time bookings that end after *now*, over every
        service's channels.  With the clock advanced to each reply these
        are background work only; if they grow, requests are queueing
        behind the future and throughput decays with run length."""
        now = self.clock.now()
        live = 0
        for instance in self.instances:
            for tier in instance.tiers:
                for channel in getattr(tier.service.resource, "_channels", ()):
                    intervals = channel.intervals
                    first = bisect.bisect_right(intervals, (now, float("inf")))
                    live += len(intervals) - first
                    if first and intervals[first - 1][1] > now:
                        live += 1
        return live

    def counters(self) -> Dict[str, float]:
        """Monotonic layer counters; the driver reports window deltas."""
        out = {
            "rules_fired": 0, "retries": 0, "corruptions": 0,
            "placement_cycles": 0, "placement_moves": 0,
            "timers_pending": self.clock.pending(),
            "wire_bytes": self.wire.bytes if self.wire is not None else 0,
        }
        for instance in self.instances:
            out["rules_fired"] += sum(instance.control.fired.values())
            if instance.resilience is not None:
                out["retries"] += instance.resilience.retry_count
                out["corruptions"] += instance.resilience.corruption_count
            if instance.placement is not None:
                out["placement_cycles"] += instance.placement.cycles
                out["placement_moves"] += instance.placement.moves
        return out

    def probe(self) -> Dict[str, float]:
        """Layer verbs called directly (three times, fastest kept) and
        layer state read once, after the traced window."""
        first = self.instances[0]
        out = {
            "state_digest_ms": _timed_min_ms(first.state_digest),
            "objects": sum(i.object_count() for i in self.instances),
            "metric_series": sum(
                len(family["samples"])
                for hub in self.hubs
                for family in hub.metrics.snapshot()["metrics"].values()
            ),
            "trace_spans_retained": sum(
                len(hub.tracer.recent()) for hub in self.hubs
            ),
        }
        if self.manager is not None:
            out["anti_entropy_ms"] = _timed_min_ms(self.manager.anti_entropy)
            out["hints_pending"] = len(self.manager.hints)
        store = first.metadata_store
        if isinstance(store, LogStore):
            # Before the checkpoint below compacts it: the log as the
            # window left it is what a crash would have to replay.
            store.sync()
            out["file_bytes"] = os.path.getsize(store.path)
            copy = os.path.join(self.workdir, "reopen.log")
            shutil.copyfile(store.path, copy)
            out["reopen_ms"] = _timed_min_ms(lambda: LogStore(copy).close())
        if first.durability is not None:
            out["fsck_ms"] = _timed_min_ms(lambda: fsck(first))
            out["checkpoint_ms"] = _timed_min_ms(first.durability.checkpoint)
        if first.placement is not None:
            out["plan_ms"] = _timed_min_ms(first.placement.plan)
        return out


# -- the five deployments ------------------------------------------------


def _stack(seed: int):
    cluster = Cluster(seed=seed)
    meter = CostMeter()
    return cluster, meter, TierRegistry(cluster, meter=meter)


def _resident_server(seed: int):
    """Figure 13's High Durability instance, every optional feature off."""
    cluster, meter, registry = _stack(seed)
    instance = high_durability_instance(registry, mem="100M", ebs="100M")
    return TieraServer(instance), cluster, meter, instance


def _direct_resident(workload, keys, seed, workdir) -> Deployment:
    server, cluster, meter, instance = _resident_server(seed)
    return Deployment(server, cluster, meter, [instance], [cluster.obs])


def _tiered_full(workload, keys, seed, workdir) -> Deployment:
    """Table 2's exclusive Memcached -> EBS -> S3 tiering, the fast tier
    a quarter of the loaded data, with what an operator would switch on."""
    cluster, meter, registry = _stack(seed)
    data = keys * workload.value_bytes
    template = lru_tiered_instance(
        registry, "TieredFull", mem=str(data // 4), ebs=str(data // 2)
    )
    # The template takes no metadata store: re-home its tiers and policy
    # on an instance whose metadata (and journal) live in a LogStore.
    template.shutdown()
    instance = TieraInstance(
        name=template.name,
        tiers=list(template.tiers),
        policy=template.policy,
        clock=cluster.clock,
        metadata_store=LogStore(os.path.join(workdir, "meta.log")),
    )
    instance.eviction_chain.update(template.eviction_chain)
    server = TieraServer(instance)
    _enable(server, "durability")
    _enable(server, "resilience")
    _enable(server, "heat")
    _enable(server, "placement", objective="balanced", interval=1.0)
    _enable(server, "slo",
            fallback=lambda: server.obs.slo.install(default_slos()))
    return Deployment(server, cluster, meter, [instance], [cluster.obs])


def _cluster_r3(workload, keys, seed, workdir) -> Deployment:
    """Four write-through shards behind the replicated router, with
    ``ClusterConfig()`` defaults: R=3, majority quorum, 5 s heartbeats,
    60 s anti-entropy.  No faults."""
    cluster, meter, registry = _stack(seed)
    shards = {
        f"shard{index}": TieraServer(
            write_through_instance(registry, mem="64M", ebs="64M")
        )
        for index in range(4)
    }
    router = ShardedTieraServer(shards, replication=ClusterConfig())
    return Deployment(
        router, cluster, meter, [s.instance for s in shards.values()],
        [cluster.obs, router.obs],
        closers=(router.cluster.stop,), manager=router.cluster,
    )


def _rpc(workload, keys, seed, workdir) -> Deployment:
    """``direct_resident``'s instance behind ``TieraRpcServer`` on a
    loopback socket, in a thread of this process; one client connection."""
    server, cluster, meter, instance = _resident_server(seed)
    rpc = TieraRpcServer(server, host="127.0.0.1", port=0).start()
    client = TieraClient(rpc.host, rpc.port)
    return Deployment(
        client, cluster, meter, [instance], [cluster.obs],
        closers=(client.close, rpc.stop),
    )


_BUILDERS = {
    "direct_resident": _direct_resident,
    "tiered_full": _tiered_full,
    "cluster_r3": _cluster_r3,
    "rpc_serial": _rpc,
    "rpc_batch8": _rpc,
}


def build(workload, keys: int, seed: int, workdir: str) -> Deployment:
    """Build ``workload``'s deployment, empty; the driver loads it.
    ``workdir`` is a fresh directory the deployment may write to; the
    caller removes it after ``close()``."""
    deployment = _BUILDERS[workload.name](workload, keys, seed, workdir)
    deployment.workdir = workdir
    return deployment
