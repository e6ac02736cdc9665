"""The simulation harness: one seeded runner, one reference model.

Every fault drill in this repo — the chaos matrix, the crash-everywhere
sweep, the shard-failover run, the migration-crash sweep, the regression
schedules under ``tests/regressions/`` — is the same five steps:

1. **build** a deployment by name from :data:`DEPLOYMENTS` on a fresh
   seeded simcloud, switching features on through ``configure``;
2. **drive** it — :func:`load`, then a closed-loop mix (:func:`drive`)
   or a scripted schedule (:func:`run_steps`);
3. **disturb** it — a :class:`~repro.simcloud.faults.ChaosScenario` on
   the fault injector, or a :class:`~repro.simcloud.faults.
   CrashPointInjector` armed at one boundary (:func:`sweep_boundaries`);
4. **settle / recover** — let repairs drain, or reopen over what
   survived the crash;
5. **check and report** — every value read back goes to the
   :class:`Ledger`; the report is JSON-able and a pure function of the
   arguments (seeded RNGs and the virtual clock only, never wall time).

The ledger is the one oracle.  It notes every write attempt per key
*before* it is sent, marks the latest attempt acked when its envelope
comes back ``ok``, and allows a key to read as its last acked value or
as the value of any attempt made after that ack — an unacked write may
have landed, the op in flight at a crash may fall on either side — and
as nothing else: never an older value, and never a value at all once a
delete is acked.

A *schedule* is a sequence of steps, plain data: ``("put"|"get"|
"delete", key)``, ``("advance", seconds)``, ``("invoke", feature,
action)`` for any action of the feature table, or a name from
:data:`ACTIONS`.  A schedule file is ``{"deployment", "seed", "steps",
"xfail"?}`` (see docs/SIMULATION.md); replay one with ``run_steps(
build(deployment, seed), steps)``.

:func:`run_chaos`, :func:`run_crash_sweep`, :func:`run_failover`,
:func:`run_migration_crash` and :func:`run_backup_lifecycle` are the
presets behind ``repro chaos | crashsweep | cluster`` and the
``chaos``, ``crash_sweep``, ``shard_failover`` and ``backup_lifecycle``
rows of :data:`repro.bench.figures.FIGURES`.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import string
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (
    Callable, ContextManager, Dict, List, Optional, Sequence, Tuple, Union,
)

from repro.bench.runner import RunResult, run_closed_loop
from repro.core.api import OpResult
from repro.core.cluster import ClusterConfig
from repro.core.durability import fsck, insert_targets, reopen_instance, simulate_crash
from repro.core.errors import NoSuchObjectError
from repro.core.server import TieraServer
from repro.core.sharding import ShardedTieraServer
from repro.kvstore import MemoryStore
from repro.simcloud.cluster import Cluster
from repro.simcloud.errors import ProcessCrash
from repro.simcloud.faults import (
    SCENARIOS,
    ChaosScenario,
    CrashPointInjector,
    shard_loss,
)
from repro.simcloud.resources import RequestContext
from repro.spec import compile_spec
from repro.spec.paper import paper_spec
from repro.tiers.registry import TierRegistry
from repro.workloads.ycsb import record_payload

#: How long the clock keeps running after a driven window, so auto-clear
#: events fire, repair replays drain and the last up-transition heals.
SETTLE_SECONDS = 60.0

#: Object size in scripted schedules.  The small fast tiers below hold
#: exactly three of these, so a fourth PUT forces an eviction.
PAYLOAD_BYTES = 4096

#: ``writeback``'s flush timer period (seconds, virtual).
FLUSH_PERIOD = 30.0

Payload = Callable[[str, int], bytes]


def report_digest(report: Dict[str, object]) -> str:
    """sha256 of a report's canonical JSON (sorted keys, no whitespace):
    equal digests, equal reports."""
    blob = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def stamp_payload(seed: int) -> Payload:
    """Scripted-schedule content: a digest of (seed, key, version)."""

    def payload(key: str, version: int) -> bytes:
        stamp = hashlib.sha256(f"{seed}:{key}:{version}".encode()).digest()
        return (stamp * (PAYLOAD_BYTES // len(stamp) + 1))[:PAYLOAD_BYTES]

    return payload


def ycsb_payload(size: int) -> Payload:
    """Closed-loop content: the YCSB record bytes of the key's number."""

    def payload(key: str, version: int) -> bytes:
        return record_payload(
            int(key.lstrip(string.ascii_letters)), version, size
        )

    return payload


# -- the reference model -----------------------------------------------------


class Ledger:
    """What each key may legitimately read as (see the module doc).

    Values are version numbers — ``payload(key, version)`` makes the
    bytes — or ``None`` for "absent", so the model is a few integers
    per key.  The only place bytes are compared with an expectation.
    """

    def __init__(self, payload: Payload):
        self.payload = payload
        #: key -> the last acked value, then every attempt made since
        self._open: Dict[str, List[Optional[int]]] = {}
        self._puts: Dict[str, int] = {}  # key -> versions handed out
        self.acks = 0
        self.checked = 0
        self.violations = 0
        #: the first few keys that read as something not allowed
        self.offenders: List[str] = []

    def put(self, key: str) -> bytes:
        """Note a PUT attempt; returns the bytes to send."""
        version = self._puts.get(key, 0)
        self._puts[key] = version + 1
        self._open.setdefault(key, [None]).append(version)
        return self.payload(key, version)

    def delete(self, key: str) -> None:
        """Note a DELETE attempt."""
        self._open.setdefault(key, [None]).append(None)

    def ack(self, key: str) -> None:
        """The latest attempt on ``key`` was acknowledged: nothing
        older may be seen again."""
        del self._open[key][:-1]
        self.acks += 1

    def acked(self, key: str) -> Optional[int]:
        """The last acked version (``None``: deleted or never acked)."""
        return self._open.get(key, [None])[0]

    def keys(self) -> List[str]:
        return sorted(self._open)

    def allowed(self, key: str) -> List[Optional[bytes]]:
        return [
            None if version is None else self.payload(key, version)
            for version in self._open.get(key, [None])
        ]

    def check(self, key: str, value: Optional[bytes]) -> bool:
        """Is ``value`` (``None``: absent) one ``key`` may read as?"""
        self.checked += 1
        if value in self.allowed(key):
            return True
        self.violations += 1
        if len(self.offenders) < 5 and key not in self.offenders:
            self.offenders.append(key)
        return False


def _model(*ledgers: Ledger) -> Dict[str, object]:
    """The report's ``model`` block, over one run's or a sweep's ledgers."""
    keys = [key for ledger in ledgers for key in ledger.offenders]
    return {
        "checked": sum(ledger.checked for ledger in ledgers),
        "violations": sum(ledger.violations for ledger in ledgers),
        "first_keys": keys[:5],
    }


class OpStats:
    """Per-operation availability, latency, and outage-episode tracking."""

    def __init__(self):
        self.ok: Dict[str, int] = {}
        self.failed: Dict[str, int] = {}
        self.latencies: Dict[str, List[float]] = {}
        self.errors_by_type: Dict[str, int] = {}
        self._episode_start: Optional[float] = None
        self.episodes: List[float] = []  # time-to-recovery per outage

    def record(self, op: str, at: float, ok: bool, latency: float, error=None) -> None:
        if ok:
            self.ok[op] = self.ok.get(op, 0) + 1
            self.latencies.setdefault(op, []).append(latency)
            if self._episode_start is not None:
                self.episodes.append(at - self._episode_start)
                self._episode_start = None
        else:
            self.failed[op] = self.failed.get(op, 0) + 1
            name = type(error).__name__ if error is not None else "Error"
            self.errors_by_type[name] = self.errors_by_type.get(name, 0) + 1
            if self._episode_start is None:
                self._episode_start = at - latency  # when the op was issued

    def report(self, end: float) -> Dict[str, object]:
        """The availability / latency / MTTR / error block of a report.

        An outage episode opens at the first failed operation and closes
        at the next successful one; its length is the client-visible
        time to recovery (one still open at ``end`` is ``unresolved``).
        """
        availability: Dict[str, float] = {}
        total_ok = total = 0
        for op in sorted(set(self.ok) | set(self.failed)):
            ok = self.ok.get(op, 0)
            n = ok + self.failed.get(op, 0)
            availability[op] = round(ok / n, 6)
            total_ok += ok
            total += n
        availability["overall"] = round(total_ok / total, 6) if total else 1.0
        latency: Dict[str, Dict[str, float]] = {}
        for op in sorted(self.latencies):
            data = sorted(self.latencies[op])
            p99 = data[max(0, -(-99 * len(data) // 100) - 1)]
            latency[op] = {
                "mean": round(sum(data) / len(data), 6),
                "p99": round(p99, 6),
                "max": round(data[-1], 6),
            }
        episodes = list(self.episodes)
        unresolved = self._episode_start is not None
        if unresolved:
            episodes.append(end - self._episode_start)
        return {
            "availability": availability,
            "latency_seconds": latency,
            "mttr": {
                "episodes": len(episodes),
                "unresolved": unresolved,
                "mean_seconds": (
                    round(sum(episodes) / len(episodes), 6) if episodes else 0.0
                ),
                "max_seconds": round(max(episodes), 6) if episodes else 0.0,
                "total_downtime_seconds": round(sum(episodes), 6),
            },
            "errors_by_type": dict(sorted(self.errors_by_type.items())),
        }


# -- 1. build ----------------------------------------------------------------


@dataclass(frozen=True)
class Row:
    """One named deployment: a spec, its arguments, the features
    :func:`build` switches on through ``configure``, and a shard shape.

    ``spec`` names a packaged spec (:func:`repro.spec.paper.paper_spec`)
    or is spec text itself; ``name`` renames the compiled instance.
    ``shape`` (``shards``, ``config``, ``journal_store``) puts ``shards``
    instances of the spec behind a replicating
    :class:`ShardedTieraServer`; without one the deployment is a single
    :class:`TieraServer`.
    """

    spec: str
    args: Dict[str, object] = field(default_factory=dict)
    features: Tuple[str, ...] = ()
    shape: Optional[Dict[str, object]] = None
    name: Optional[str] = None

    def serve(self, registry: TierRegistry, **args) -> TieraServer:
        """One instance of the spec, compiled with exactly ``args``
        over ``registry``, behind its server."""
        text = paper_spec(self.spec) if self.spec.isidentifier() else self.spec
        instance = compile_spec(text, registry, args=args)
        if self.name is not None:
            instance.name = self.name
        return TieraServer(instance)


#: Figure 3 with an eviction chain: a full Memcached moves its LRU
#: object to EBS, so a crash sweep crosses copy/evict/move boundaries.
WRITEBACK_SPEC = paper_spec("low_latency").replace(
    "size: mem }", "size: mem, evict_to: tier2 }"
)

#: The backup lifecycle's object size, the share of its objects each
#: wave rewrites, and its restore drill's period (virtual seconds).
BACKUP_RECORD_BYTES = 2048
BACKUP_CHANGE_FRACTION = 0.15
BACKUP_VERIFY_INTERVAL = 50.0

#: a 64 MB Memcached + EBS pair; a fast tier that holds three payloads
_WT = dict(mem="64M", ebs="64M")
_SMALL = dict(mem=str(3 * PAYLOAD_BYTES), ebs="64M")

#: Every deployment a figure, a drill or a schedule file builds, by name.
#: The fault drills' shapes: write-through is Figure 17's starting
#: instance, cached-s3 Figure 12's cache over a durable store, writeback
#: Figure 3 with an eviction chain, lru-tiered Table 2's exclusive
#: tiering (both with a three-object fast tier), replicated write-through
#: shards behind a replicating router (``config=None``: an unreplicated
#: one).  The rest are the evaluation's instances as the figures use
#: them (docs/SIMULATION.md has the table).
DEPLOYMENTS: Dict[str, Row] = {
    "write-through": Row("write_through", _WT),
    "cached-s3": Row("dedup", dict(mem="16M")),
    "writeback": Row(WRITEBACK_SPEC, dict(t=FLUSH_PERIOD, **_SMALL)),
    "lru-tiered": Row("lru_tiered", _SMALL),
    "replicated": Row("write_through", _WT, shape=dict(
        shards=4, config=ClusterConfig(), journal_store=None,
    )),
    # §4.1.1's MySQL deployments (Figures 7-10)
    "memcached-replicated": Row("memcached_replicated", dict(mem="512M")),
    "memcached-ebs": Row("memcached_ebs", dict(mem="512M", ebs="8G")),
    "memcached-s3": Row("memcached_s3", dict(mem="1M", colocated=True)),
    # Table 2's TI:n; Figure 11 sizes the tiers from its data set
    **{f"TI:{n}": Row("lru_tiered", dict(s3="10G"), name=f"TI:{n}")
       for n in (1, 2, 3)},
    # Table 3 (Figure 13, batch scaling)
    "high-durability": Row("high_durability"),
    "low-durability": Row("low_durability"),
    "replicated-volumes": Row("replicated_volumes", dict(size="64M")),  # Fig 14
    "low-latency": Row("low_latency", _WT),  # Figure 15
    "growing": Row("growing", dict(t=3600.0, ebs="64M")),  # Figure 16
    # the adaptive-placement row's three deployments
    "write-through-lru": Row("write_through_lru"),
    "demand-lru": Row("demand_lru"),
    "adaptive": Row("adaptive"),
    # the ablations and the backup drill
    "lru-eviction": Row("lru_eviction"),
    "mru-eviction": Row("mru_eviction"),
    "inclusive-cache": Row("inclusive_cache"),
    "fill-backup": Row("fill_backup"),
    "background-fill-backup": Row("background_fill_backup"),
    "backup-lifecycle": Row(
        "backup_lifecycle", dict(verify_interval=BACKUP_VERIFY_INTERVAL),
        features=("durability",), name="backup-bench",
    ),
}

#: What the chaos matrix and the instance crash sweep cover.
CHAOS_DEPLOYMENTS = ("write-through", "cached-s3")
CRASH_DEPLOYMENTS = ("write-through", "writeback", "lru-tiered", "cached-s3")


@dataclass
class Sim:
    """One built deployment under test, its ledger and its op log."""

    cluster: Cluster
    registry: TierRegistry
    server: object  # TieraServer, or the replicating ShardedTieraServer
    ledger: Ledger
    stats: OpStats = field(default_factory=OpStats)
    #: [op, key, ok, error code, latency] per driven op
    envelopes: List[list] = field(default_factory=list)
    #: a shard waiting to join (the migration sweep)
    joiner: Optional[TieraServer] = None

    @property
    def clock(self):
        return self.cluster.clock

    @property
    def instance(self):
        if not hasattr(self.server, "instance"):
            raise ValueError("this drill needs a single-instance deployment")
        return self.server.instance

    def op(self, kind: str, key: str, ctx: RequestContext) -> OpResult:
        """One client op through the façade and the ledger: a write is
        noted before it is sent and acked if it came back ``ok``; a
        GET's answer — bytes, or ``NO_SUCH_OBJECT`` — is checked."""
        if kind == "get":
            result = self.server.get_object(key, ctx=ctx)
            if result.ok or result.error == NoSuchObjectError.code:
                self.ledger.check(key, result.value)
            return result
        if kind == "put":
            result = self.server.put_object(key, self.ledger.put(key), ctx=ctx)
        else:
            self.ledger.delete(key)
            result = self.server.delete_object(key, ctx=ctx)
        if result.ok:
            self.ledger.ack(key)
        return result

    def verify(self, keys, read: Callable[[str], Optional[bytes]]) -> List[str]:
        """The ``keys`` whose ``read(key)`` (``None``: absent or
        unreadable) the ledger refuses."""
        return [k for k in keys if not self.ledger.check(k, read(k))]

    def arm(self, injector: CrashPointInjector) -> None:
        manager = getattr(self.server, "cluster", None)
        target = manager if manager is not None else self.server.instance
        target.crash_points = injector

    def reopen(self, **kwargs) -> Tuple[TieraServer, Dict[str, object]]:
        """Boot a successor over what the instance left behind (same
        name, tiers, policy, metadata store and eviction chain; a crash
        is :func:`simulate_crash`'s to make): its server and its
        recovery report."""
        instance = self.instance
        successor, recovery = reopen_instance(
            name=instance.name,
            tiers=list(instance.tiers.ordered()),
            policy=instance.policy,
            clock=self.clock,
            metadata_store=instance.metadata_store,
            eviction_chain=dict(instance.eviction_chain),
            **kwargs,
        )
        return TieraServer(successor), recovery

    def digest(self) -> str:
        shards = getattr(self.server, "shards", None)
        if shards is None:
            return self.server.instance.state_digest()
        parts = [
            f"{name}:{shards[name].instance.state_digest()}"
            for name in sorted(shards)
        ]
        return hashlib.sha256("|".join(parts).encode()).hexdigest()


def build(
    deployment: str,
    seed: int,
    payload: Optional[Payload] = None,
    features: Sequence[str] = (),
    **overrides,
) -> Sim:
    """A fresh seeded simcloud with the :data:`DEPLOYMENTS` row named
    ``deployment`` on it: its spec compiled with the row's arguments,
    ``overrides`` applied (a sharded row's ``shards``, ``config`` and
    ``journal_store`` among them), then the row's features and each of
    ``features`` configured with their defaults."""
    row = DEPLOYMENTS.get(deployment)
    if row is None:
        raise ValueError(
            f"unknown deployment {deployment!r}; pick one of {tuple(DEPLOYMENTS)}"
        )
    cluster = Cluster(seed=seed)
    registry = TierRegistry(cluster)
    args = {**row.args, **overrides}
    if row.shape is None:
        server = row.serve(registry, **args)
    else:
        shape = {key: args.pop(key, value) for key, value in row.shape.items()}
        server = ShardedTieraServer(
            {
                f"shard{index}": row.serve(registry, **args)
                for index in range(shape["shards"])
            },
            replication=shape["config"], journal_store=shape["journal_store"],
        )
    for feature in (*row.features, *features):
        server.configure(feature).raise_for_error()
    return Sim(cluster, registry, server, Ledger(payload or stamp_payload(seed)))


def build_shard_cluster(seed: int = 2014, **shape):
    """The ``replicated`` deployment, unwrapped: (cluster, router, node
    map, registry); ``shape`` is ``shards``, ``config`` (a
    :class:`ClusterConfig`), ``journal_store``, ``mem``, ``ebs``.  The
    node map gives each shard's simcloud node names, the targets a chaos
    scenario needs to take the whole shard down; the registry is shared
    so later shards get unique node names."""
    sim = build("replicated", seed, **shape)
    return sim.cluster, sim.server, _shard_nodes(sim.server), sim.registry


def _shard_nodes(router: ShardedTieraServer) -> Dict[str, List[str]]:
    return {
        name: sorted({tier.service.node.name for tier in shard.instance.tiers})
        for name, shard in router.shards.items()
    }


# -- 2. drive ----------------------------------------------------------------


def load(sim: Sim, keys: Sequence[str]) -> None:
    """Populate before any fault is active: version 0 of every key."""
    ctx = RequestContext(sim.clock)
    for key in keys:
        sim.op("put", key, ctx).raise_for_error()
    sim.clock.run_until(ctx.time)


def drive(
    sim: Sim, keys: Sequence[str], rng: random.Random, read_fraction: float, **loop
) -> RunResult:
    """Closed-loop GET/PUT mix over ``keys`` (``loop``: run_closed_loop's
    ``clients``, ``duration``, ``think_time``), logged to ``sim.stats``
    and ``sim.envelopes``."""

    def op_fn(client: int, ctx: RequestContext) -> str:
        key = keys[rng.randrange(len(keys))]
        kind = "get" if rng.random() < read_fraction else "put"
        started = ctx.time
        result = sim.op(kind, key, ctx)
        took = ctx.time - started
        sim.stats.record(kind, ctx.time, result.ok, took, result.exception)
        sim.envelopes.append(
            [kind, key, result.ok, result.error, round(result.latency, 9)]
        )
        # run_closed_loop counts a raised op as an error, not an operation.
        result.raise_for_error()
        return kind

    return run_closed_loop(sim.clock, op_fn=op_fn, **loop)


#: Named steps for what the feature table has no action for.
ACTIONS: Dict[str, Callable[[Sim], object]] = {
    "checkpoint": lambda sim: sim.instance.durability.checkpoint(),
}


def run_steps(sim: Sim, steps) -> None:
    """Execute a schedule (see the module doc); a failed step raises."""
    clock = sim.clock
    for name, *args in steps:
        if name in ("put", "get", "delete"):
            ctx = RequestContext(clock)
            sim.op(name, args[0], ctx).raise_for_error()
            if ctx.time > clock.now():
                clock.run_until(ctx.time)
        elif name == "advance":
            clock.run_until(clock.now() + args[0])
        elif name == "invoke":
            sim.server.invoke(*args).raise_for_error()
        elif name in ACTIONS:
            ACTIONS[name](sim)
        else:
            raise ValueError(f"unknown step {name!r}")


# -- 3./4. disturb, recover: crash at every boundary --------------------------


def sweep_boundaries(
    build_sim: Callable[[], Sim],
    run: Callable[[Sim], None],
    recover: Callable[[Sim, bool], Dict[str, object]],
    select: Callable[[list], list],
    observe: Optional[Callable[[Sim], None]] = None,
):
    """The one crash-at-every-boundary loop.

    A reference run of ``run`` on a fresh ``build_sim()`` records the
    crash-point schedule (``observe(sim)`` sees every boundary, and the
    end of the run); then, for each visit ``select(schedule)`` keeps, a
    fresh same-seed build is armed to die exactly there, and
    ``recover(sim, crashed)`` reopens what survived, verifies it and
    returns the report entry's fields.  Returns (reference sim,
    schedule, entries, ``model`` block over every run's ledger).
    """
    reference = build_sim()
    probe = CrashPointInjector(
        on_hit=(lambda index, point: observe(reference)) if observe else None
    )
    reference.arm(probe)
    run(reference)
    if observe:
        observe(reference)
    schedule = list(probe.schedule)
    entries: List[Dict[str, object]] = []
    ledgers = [reference.ledger]
    for index, point in select(schedule):
        sim = build_sim()
        sim.arm(CrashPointInjector().arm_index(index))
        crashed = False
        try:
            run(sim)
        except ProcessCrash:
            crashed = True
        entries.append({
            "index": index, "point": point, "crashed": crashed,
            **recover(sim, crashed),
        })
        ledgers.append(sim.ledger)
    return reference, schedule, entries, _model(*ledgers)


# -- presets -----------------------------------------------------------------


def run_chaos(
    scenario: Union[str, ChaosScenario] = "transient-errors",
    deployment: str = "write-through",
    seed: int = 2014,
    resilient: bool = True,
    duration: float = 240.0,
    clients: int = 4,
    records: int = 64,
    read_fraction: float = 0.5,
    record_size: int = 4096,
    scenario_at: float = 0.0,
    think_time: float = 0.02,
) -> Dict[str, object]:
    """One deterministic chaos run: load, schedule ``scenario`` on the
    fault injector, drive a closed-loop mix, let repairs drain."""
    if isinstance(scenario, str):
        if scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {scenario!r}; "
                f"pick one of {sorted(SCENARIOS)}"
            )
        scenario = SCENARIOS[scenario]
    # The canned objectives watch the whole run: injected faults burn
    # error budget, and the breaches land in health(), the audit log and
    # the report's "slo" section — all on the virtual clock.
    sim = build(
        deployment, seed, ycsb_payload(record_size),
        features=("resilience", "slo") if resilient else ("slo",),
    )
    keys = [f"user{key:06d}" for key in range(records)]
    load(sim, keys)
    sim.cluster.chaos(scenario, at=scenario_at)
    base = sim.clock.now()
    run = drive(
        sim, keys, random.Random((seed << 3) ^ 0x5EED), read_fraction,
        clients=clients, duration=duration, think_time=think_time,
    )
    settle = [("advance", SETTLE_SECONDS)]
    if resilient:
        replay = ("invoke", "resilience", "replay")
        settle = [replay, *settle, replay, ("advance", 1.0)]
    run_steps(sim, settle)

    server, now = sim.server, sim.clock.now()
    report: Dict[str, object] = {
        "scenario": scenario.describe(),
        "deployment": deployment,
        "seed": seed,
        "resilient": resilient,
        "duration": duration,
        "clients": clients,
        "records": records,
        "read_fraction": read_fraction,
        "operations": run.operations,
        # successful GETs whose bytes the ledger does not allow
        "corrupt_reads": sim.ledger.violations,
        "model": _model(sim.ledger),
        **sim.stats.report(end=now - base),
        "faults": sim.cluster.faults.report(),
        "state_digest": sim.digest(),
        "slo": {
            "summary": server.obs.slo.summary(now),
            "transitions": list(server.obs.slo.transitions),
            "health_status": server.health()["status"],
        },
    }
    if resilient:
        report["resilience"] = server.feature_status("resilience").state
    return report


#: The crash sweep's workload: PUTs (``writeback``: the 4th evicts
#: obj00), a GET, an overwrite, a delete, a timer flush, more evictions,
#: a checkpoint (the compact boundary) and a second flush.
CRASH_SCRIPT = (
    ("put", "obj00"), ("put", "obj01"), ("put", "obj02"), ("put", "obj03"),
    ("get", "obj01"),
    ("put", "obj02"),
    ("delete", "obj01"),
    ("advance", FLUSH_PERIOD * 1.5),
    ("put", "obj04"), ("put", "obj05"),
    ("get", "obj00"),
    ("checkpoint",),
    ("advance", FLUSH_PERIOD * 1.5),
)


def _surviving_bytes(instance, key: str) -> Optional[bytes]:
    """The object's bytes from its first durable recorded copy (raw
    service read: no virtual time, no LRU perturbation)."""
    meta = instance._meta.get(key)
    if meta is None:
        return None
    for tier in instance.tiers.ordered():
        if tier.durable and meta.holds(tier.name):
            blob = tier.service.peek(key)
            if blob is not None:
                return blob
    return None


def run_crash_sweep(
    deployment: str = "write-through",
    seed: int = 2014,
    max_points: Optional[int] = None,
) -> Dict[str, object]:
    """Kill :data:`CRASH_SCRIPT` at every crash point, reopen, verify.

    After each crash (volatile tiers lost, background work cancelled) a
    successor boots over the surviving metadata store, runs durability
    recovery, and must show: **fsck clean**; a durable digest equal to
    one the reference run had at a boundary (the crash landed on a
    primitive-operation edge, never in between); and — where the policy
    acks only once a durable tier holds the bytes — every key's durable
    copy allowed by the ledger.  A policy that acks from memcached
    (``writeback``) *declares* a loss window, Figure 13's trade-off, so
    that last check is skipped there.

    ``max_points`` caps how many boundaries are swept (for quick test
    runs; 0 runs the reference alone); the report records the cap so
    truncation is never silent.
    """
    if max_points is not None and max_points < 0:
        raise ValueError(f"max_points must be >= 0, got {max_points}")
    digests: List[str] = []

    def recover(sim: Sim, crashed: bool) -> Dict[str, object]:
        if crashed:
            simulate_crash(sim.instance)
        server, recovery = sim.reopen()
        successor = server.instance
        scrub = fsck(successor, repair=False)
        in_reference = successor.state_digest(durable_only=True) in digests
        acked_lost = []
        if insert_targets(successor):  # the policy acks after a durable write
            acked_lost = sim.verify(
                sim.ledger.keys(), lambda key: _surviving_bytes(successor, key)
            )
        successor.shutdown()
        return {
            "fsck_findings": scrub["counts"]["findings"],
            "digest_in_reference": in_reference,
            "replayed": len(recovery["replayed"]),
            "incomplete_responses": len(recovery["incomplete_responses"]),
            "recovery_errors": len(recovery["errors"]),
            "acked_lost": acked_lost,
            "ok": (
                crashed and scrub["clean"] and in_reference and not acked_lost
            ),
        }

    reference, schedule, points, model = sweep_boundaries(
        lambda: build(deployment, seed, features=("durability",)),
        lambda sim: run_steps(sim, CRASH_SCRIPT),
        recover,
        select=lambda visits: visits[:max_points],
        observe=lambda sim: digests.append(
            sim.instance.state_digest(durable_only=True)
        ),
    )
    failed = [p for p in points if not p["ok"]]
    final_digest = reference.digest()
    fsck_clean = bool(fsck(reference.instance)["clean"])
    return {
        "deployment": deployment,
        "seed": seed,
        "payload_bytes": PAYLOAD_BYTES,
        "reference": {
            "acked_ops": reference.ledger.acks,
            "crash_points": len(schedule),
            "boundary_digests": len(set(digests)),
            "final_digest": final_digest,
            "final_durable_digest": digests[-1],
            "fsck_clean": fsck_clean,
        },
        "swept": len(points),
        "truncated_to": max_points,
        "points": points,
        "model": model,
        "summary": {
            "ok": len(points) - len(failed),
            "failed": [
                {"index": p["index"], "point": p["point"]} for p in failed
            ],
            "clean": not failed and fsck_clean,
        },
    }


def run_failover(
    seed: int = 2014,
    shards: int = 4,
    replication_factor: int = 3,
    write_quorum: int = 2,
    victim_index: int = 1,
    records: int = 48,
    record_size: int = 2048,
    duration: float = 240.0,
    clients: int = 4,
    read_fraction: float = 0.5,
    think_time: float = 0.02,
    outage_at: float = 60.0,
    outage: float = 90.0,
    flap_duration: float = 40.0,
) -> Dict[str, object]:
    """One deterministic shard-loss run: kill one shard of an
    R-replicated cluster mid-workload with the ``shard-loss`` scenario
    (hard outage, then flapping recovery) and measure availability,
    acked-write loss, hinted-handoff drain and anti-entropy convergence.
    :func:`failover_gate` holds the acceptance bar."""
    if records < 1:
        raise ValueError(f"records must be >= 1, got {records}")
    config = ClusterConfig(
        replication_factor=replication_factor,
        write_quorum=write_quorum,
        heartbeat_interval=5.0,
        anti_entropy_interval=45.0,
    )
    sim = build(
        "replicated", seed, ycsb_payload(record_size),
        shards=shards, config=config,
    )
    router, manager = sim.server, sim.server.cluster
    victim = f"shard{victim_index % shards}"
    keys = [f"user{key:06d}" for key in range(records)]
    load(sim, keys)
    scenario = shard_loss(
        targets=tuple(f"node:{n}" for n in _shard_nodes(router)[victim]),
        at=outage_at,
        outage=outage,
        flap_duration=flap_duration,
    )
    sim.cluster.chaos(scenario, at=0.0)
    base = sim.clock.now()
    run = drive(
        sim, keys, random.Random((seed << 4) ^ 0xC1A5), read_fraction,
        clients=clients, duration=duration, think_time=think_time,
    )
    run_steps(sim, (("advance", SETTLE_SECONDS),))

    # Converge: drain hints and re-run anti-entropy until a sweep finds
    # nothing divergent (bounded so a bug cannot loop forever).
    convergence_rounds = 0
    final_sweep = manager.anti_entropy()
    while (len(manager.hints) or final_sweep["divergent"]) \
            and convergence_rounds < 10:
        convergence_rounds += 1
        manager.replay_hints()
        sim.clock.run_until(sim.clock.now() + 1.0)
        final_sweep = manager.anti_entropy()
    manager.stop()

    # Loss check: every key must read back as its last acked write or a
    # later attempt (an unacked write that reached a quorum minority may
    # legitimately win anti-entropy).
    ctx = RequestContext(sim.clock)
    lost = sim.verify(keys, lambda key: router.get_object(key, ctx=ctx).value)

    envelope_blob = json.dumps(sim.envelopes, separators=(",", ":"))
    scrub = manager.fsck()
    return {
        "seed": seed,
        "shards": shards,
        "victim": victim,
        "config": config.describe(),
        "scenario": scenario.describe(),
        "workload": {
            "records": records,
            "record_size": record_size,
            "duration": duration,
            "clients": clients,
            "read_fraction": read_fraction,
            "operations": run.operations,
        },
        **sim.stats.report(end=sim.clock.now() - base),
        "acked_writes": sum(1 for key in keys if sim.ledger.acked(key)),
        "acked_write_loss": len(lost),
        "lost_keys": lost,
        "model": _model(sim.ledger),
        "hints": {
            "recorded": manager.hints.recorded,
            "replayed": manager.hints.replayed,
            "pending": len(manager.hints),
        },
        "anti_entropy": {
            "runs": len(manager.anti_entropy_runs),
            "final_divergent": final_sweep["divergent"],
            "repairs": sum(r["repairs"] for r in manager.anti_entropy_runs),
            "convergence_rounds": convergence_rounds,
        },
        "detector_transitions": list(manager.detector.transitions),
        "replay_runs": list(manager.replay_runs),
        "envelopes": {
            "count": len(sim.envelopes),
            "digest": hashlib.sha256(envelope_blob.encode()).hexdigest(),
        },
        "fsck": {"clean": scrub["clean"], "findings": len(scrub["findings"])},
        "state_digest": sim.digest(),
    }


#: The failover drill's acceptance bar, by name; each check reads a few
#: fields of a :func:`run_failover` report.
FAILOVER_CHECKS: Dict[str, Callable[[Dict[str, object]], bool]] = {
    "availability >= 99.9%": lambda r: r["availability"]["overall"] >= 0.999,
    "zero acked writes lost": lambda r: r["acked_write_loss"] == 0,
    "no ledger violation": lambda r: r["model"]["violations"] == 0,
    "every hint drained": lambda r: r["hints"]["pending"] == 0,
    "anti-entropy converged":
        lambda r: r["anti_entropy"]["final_divergent"] == 0,
    "cluster fsck clean": lambda r: r["fsck"]["clean"] is True,
}


def failover_gate(report: Dict[str, object]) -> List[str]:
    """The names of the :data:`FAILOVER_CHECKS` ``report`` fails."""
    return [name for name, check in FAILOVER_CHECKS.items() if not check(report)]


def _first_middle_last(schedule) -> List[Tuple[int, str]]:
    """The first, middle and last visit of every named crash point."""
    by_point: Dict[str, List[int]] = {}
    for index, point in schedule:
        by_point.setdefault(point, []).append(index)
    return sorted({
        (visits[at], point)
        for point, visits in by_point.items()
        for at in (0, len(visits) // 2, -1)
    })


def run_migration_crash(
    seed: int = 2014,
    shards: int = 3,
    records: int = 16,
    record_size: int = 1024,
    replication_factor: Optional[int] = 2,
    action: str = "add",
) -> Dict[str, object]:
    """Crash a journaled ``add_shard`` (``action="remove"``: removing
    ``shard0``) at the first, middle and last visit of every
    ``cluster.*`` boundary; rebuild the router over the *same shards and
    journal store*, :meth:`recover`, and check cluster fsck plus every
    key against the ledger.  ``replication_factor=None`` sweeps an
    unreplicated router."""
    config = None if replication_factor is None else ClusterConfig(
        replication_factor=replication_factor, write_quorum=1,
        anti_entropy_interval=0.0,
    )
    keys = [f"mig{key:05d}" for key in range(records)]

    def build_sim() -> Sim:
        sim = build(
            "replicated", seed, ycsb_payload(record_size),
            shards=shards, config=config, journal_store=MemoryStore(),
        )
        sim.joiner = DEPLOYMENTS["replicated"].serve(sim.registry)
        load(sim, keys)
        return sim

    def recover(sim: Sim, crashed: bool) -> Dict[str, object]:
        router = sim.server
        entry: Dict[str, object] = {}
        if crashed:
            sim.clock.cancel_all()  # the dead migrator's timers die too
            # Rebuild the control layer over the surviving shards and
            # the same journal, exactly like reopening after a crash.
            members = dict(router.shards)
            if action == "add":
                members["joiner"] = sim.joiner
            router = ShardedTieraServer(
                members, replication=config,
                journal_store=router.cluster.journal.store,
            )
            recovery = router.cluster.recover()
            entry["recovery"] = {
                k: recovery[k] for k in ("redone", "confirmed", "rebalanced")
            }
        scrub = router.cluster.fsck()
        router.cluster.stop()
        ctx = RequestContext(sim.clock)
        readable = not sim.verify(
            keys, lambda key: router.get_object(key, ctx=ctx).value
        )
        return {
            **entry,
            "fsck_clean": scrub["clean"],
            "keys_readable": readable,
            "ok": scrub["clean"] and readable,
        }

    reference, schedule, swept, model = sweep_boundaries(
        build_sim,
        lambda sim: (sim.server.add_shard("joiner", sim.joiner)
                     if action == "add" else sim.server.remove_shard("shard0")),
        recover,
        select=_first_middle_last,
    )
    reference_fsck = reference.server.cluster.fsck()
    reference.server.cluster.stop()
    return {
        "seed": seed,
        "shards": shards,
        "records": records,
        "config": reference.server.cluster.config.describe(),
        "crash_points_visited": len(schedule),
        "reference_fsck_clean": reference_fsck["clean"],
        "swept": swept,
        "model": model,
        "clean": reference_fsck["clean"]
        and all(entry["ok"] for entry in swept),
    }


def run_backup_lifecycle(
    seed: int = 2014,
    records: int = 120,
    waves: int = 4,
    section: Callable[[str], ContextManager] = lambda name: nullcontext(),
) -> Dict[str, object]:
    """Full snapshot, incremental waves, crash, PITR, scheduled verify.

    Each wave rewrites a fixed share of the set and is captured by
    an incremental snapshot; mid-history a journal sequence number and
    its durable digest are pinned as the point-in-time target.  The
    instance then crashes, a successor reopens over the same metadata
    and backup store and restores ``to_seq`` — the digest must land
    exactly, fsck must be clean — and the timer's restore drill must
    report through ``health()``.  ``section(name)`` brackets the full
    snapshot (``"snapshot"``) and the restore (``"restore"``), the two
    steps whose wall time is worth profiling.
    """
    rng = random.Random(seed)
    root = tempfile.mkdtemp(prefix="tiera-backup-")
    sim = build("backup-lifecycle", seed)
    clock = sim.clock

    def put(server, key: str, tag: str) -> None:
        block = bytes(rng.getrandbits(8) for _ in range(64))
        body = block * (BACKUP_RECORD_BYTES // 64)
        ctx = RequestContext(clock)
        server.put_object(
            key, tag.encode("ascii") + body[len(tag):], ctx=ctx
        ).raise_for_error()
        if ctx.time > clock.now():
            clock.run_until(ctx.time)

    try:
        instance = sim.instance
        instance.enable_backups(root)
        server, manager = sim.server, instance.backup
        for i in range(records):
            put(server, f"obj{i:04d}", f"v0-{i}")
        with section("snapshot"):
            snapshots = [manager.snapshot(kind="full")]
        changed = max(1, int(records * BACKUP_CHANGE_FRACTION))
        for wave in range(1, waves + 1):
            victims = rng.sample(range(records), changed)
            for index, i in enumerate(victims):
                put(server, f"obj{i:04d}", f"v{wave}-{i}")
                if wave == (waves + 1) // 2 and index == changed // 2:
                    # Pinned mid-wave, strictly between snapshots, so the
                    # restore must replay WAL records on top of a chain.
                    target_seq = manager.last_seq
                    target_digest = instance.state_digest(durable_only=True)
            snapshots.append(manager.snapshot())

        simulate_crash(instance)
        server, _ = sim.reopen(backup_root=root)
        successor, manager = server.instance, server.instance.backup
        with section("restore"):
            restore = manager.restore(to_seq=target_seq)
        scrub = fsck(successor, repair=False)
        clock.run_until(
            clock.now() + BACKUP_VERIFY_INTERVAL + 1.0
        )
        health = server.health()
        verified = health["backup"]["last_verified_restore"]
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "records": records,
        "waves": waves,
        "changed_per_wave": changed,
        "snapshots": [
            {key: entry[key] for key in (
                "id", "kind", "bytes", "objects", "upto_seq", "state_digest",
            )}
            for entry in snapshots
        ],
        "incremental_vs_full_bytes": round(
            snapshots[1]["bytes"] / snapshots[0]["bytes"], 4
        ),
        "pitr": {
            "target_seq": target_seq,
            "base_snapshot": restore["base_snapshot"],
            "replayed": restore["replayed"],
            "digest_match": restore["durable_digest"] == target_digest,
            "durable_digest": restore["durable_digest"],
            "fsck_clean": scrub["clean"],
        },
        "verification": {
            "ran": verified is not None,
            "ok": bool(verified and verified["ok"]),
            "snapshot": verified["snapshot"] if verified else None,
            "replayed": verified["replayed"] if verified else None,
            "health_status": health["status"],
        },
    }
