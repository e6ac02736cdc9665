"""The paper's evaluation as one table: each figure, its scale and its shape.

:data:`FIGURES` holds one :class:`Figure` row per table the evaluation
prints — Figures 7-18 (with Figure 13's kill-and-restart and Figure
17's resilience-layer variants), three gated extensions, the fault
drills of :mod:`repro.bench.sim` (chaos matrix, crash sweep, shard
failover, backup lifecycle) and three design ablations.  A row
carries:

* the **experiment**, parameterised by scale: ``full`` holds the
  constants of the paper-scale sweep, ``smoke`` a few overrides that
  run the same code in seconds;
* the table's title, headers and note;
* its **named shape predicates** — who wins, by what factor, where the
  crossovers fall — as functions of the table's rows and the run's
  ``facts`` (the extra, JSON-able numbers a figure reports beside its
  rows).

``benchmarks/bench_figures.py`` runs every row at full scale and writes
``benchmarks/results/<output>.txt``; ``repro bench``
(:mod:`repro.bench.telemetry`) runs the same rows at smoke scale and
writes a ``BENCH_<row>.json`` record that ``repro benchdiff`` re-checks.
Every experiment runs on the simulated clock with seeded RNGs, so a row
is a pure function of its parameters.  A drill row's facts carry the
sha256 of each preset report it ran (:func:`repro.bench.sim.
report_digest`), so a record pins those reports byte for byte without
holding them.
"""

from __future__ import annotations

import hashlib
import random
import zlib
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Dict, List, Tuple, Union

from repro.apps.bookstore.app import BookstoreApp
from repro.apps.bookstore.browser import THINK_TIME as BROWSER_THINK_TIME
from repro.apps.bookstore.browser import EmulatedBrowser
from repro.apps.minidb.database import Database
from repro.bench.deployments import (
    DEFAULT_POOL_PAGES,
    _stack,
    mysql_memory_engine,
    mysql_on_ebs,
    mysql_on_memcached_ebs,
    mysql_on_memcached_replicated,
    mysql_on_memcached_s3,
)
from repro.bench.metrics import LatencyRecorder
from repro.bench.report import (
    TIER_BREAKDOWN_HEADERS,
    format_table,
    ms,
    tier_breakdown_rows,
)
from repro.bench.runner import RunResult, run_closed_loop, run_pipelined
from repro.bench.sim import (
    CHAOS_DEPLOYMENTS,
    CRASH_DEPLOYMENTS,
    FAILOVER_CHECKS,
    report_digest,
    run_backup_lifecycle,
    run_chaos,
    run_crash_sweep,
    run_failover,
    run_migration_crash,
)
from repro.core.instance import TieraInstance
from repro.core.server import TieraServer
from repro.core.templates import (
    dedup_instance,
    ephemeral_s3_reconfiguration,
    growing_instance,
    high_durability_instance,
    low_durability_instance,
    low_latency_instance,
    lru_tiered_instance,
    memcached_ebs_instance,
    replicated_volumes_instance,
    write_through_instance,
)
from repro.core.units import format_size, parse_size
from repro.fs.cache import PageCache
from repro.fs.dedupfs import DedupFileSystem
from repro.fs.filesystem import TieraFileSystem
from repro.fs.rawfs import RawDeviceFileSystem
from repro.monitor import StorageMonitor
from repro.obs.export import counter_delta, counter_totals
from repro.obs.profiler import Profiler
from repro.simcloud.cluster import Cluster
from repro.simcloud.latency import LognormalLatency, SizeDependentLatency
from repro.simcloud.resources import RequestContext
from repro.simcloud.services.blockstore import SimBlockVolume
from repro.spec import Compiler, compile_spec, parse
from repro.spec.paper import paper_spec
from repro.tiers.registry import TierRegistry
from repro.workloads.distributions import ZipfianKeys
from repro.workloads.fio import FioReader
from repro.workloads.sysbench import SysbenchOltp, load_table
from repro.workloads.ycsb import (
    YcsbWorkload,
    insert_stream,
    mixed_50_50,
    record_payload,
    write_only,
)

Rows = List[List[object]]
Facts = Dict[str, object]
#: A shape predicate: true when the figure's rows and facts show the claim.
Check = Callable[[Rows, Facts], bool]


@dataclass(frozen=True)
class Figure:
    """One table of the evaluation: experiment, layout and shape."""

    output: str
    title: str
    headers: Tuple[str, ...]
    experiment: Callable[["Trial"], Tuple[Rows, Facts]]
    checks: Dict[str, Check]
    full: Dict[str, object]
    smoke: Dict[str, object] = field(default_factory=dict)
    #: static text, or ``note(facts, params)`` for figures that report
    #: run-dependent numbers under the table
    note: Union[str, Callable[[Facts, SimpleNamespace], str]] = ""
    #: title of the per-tier breakdown table appended from
    #: ``facts["breakdown"]`` (Figures 7 and 8)
    breakdown: str = ""

    def params(self, scale: str) -> Dict[str, object]:
        """``full``, with the ``smoke`` overrides when ``scale == "smoke"``."""
        return {**self.full, **(self.smoke if scale == "smoke" else {})}

    def verdicts(self, rows: Rows, facts: Facts) -> Dict[str, bool]:
        """Each named predicate, evaluated."""
        out = {}
        for name, check in self.checks.items():
            try:
                out[name] = bool(check(rows, facts))
            # a malformed or truncated table fails the predicate
            except (LookupError, TypeError, ValueError, ArithmeticError,
                    StopIteration):
                out[name] = False
        return out

    def render(self, trial: "Trial") -> str:
        note = self.note(trial.facts, trial.p) if callable(self.note) else self.note
        text = format_table(self.title, self.headers, trial.rows, note=note)
        if self.breakdown:
            text += "\n\n" + format_table(
                self.breakdown,
                TIER_BREAKDOWN_HEADERS,
                trial.facts["breakdown"],
                note="From the tiera_* metrics registry: per-service op "
                     "counts, simulated seconds charged, and each tier's "
                     "share of GETs.",
            )
        return text


class Trial:
    """One run of a figure at one scale.

    Experiments read their parameters from ``p``, wrap their phases in
    ``section("build" | "load" | "drive")`` — wall-timed by the trial's
    :class:`~repro.obs.profiler.Profiler` — and drive load through
    :meth:`drive`, which also totals every run's operations, latencies
    and registry counters for the telemetry record.
    """

    def __init__(self, name: str, scale: str):
        self.name = name
        self.figure = FIGURES[name]
        self.scale = scale
        self.params = self.figure.params(scale)
        self.p = SimpleNamespace(**self.params)
        self.profiler = Profiler()
        self.operations = 0
        self.errors = 0
        self.duration = 0.0
        self.latencies = LatencyRecorder()
        self.registry: Dict[str, float] = {}
        self.rows: Rows = []
        self.facts: Facts = {}
        self.verdicts: Dict[str, bool] = {}

    @property
    def failed(self) -> List[str]:
        return [name for name, ok in self.verdicts.items() if not ok]

    def section(self, name: str):
        return self.profiler.section(name)

    def tally(self, operations: int, duration: float = 0.0) -> None:
        """Count a preset's operations (and driven window) in the record;
        a crash sweep counts one per boundary it crashed and recovered."""
        self.operations += operations
        self.duration += duration

    def load(self, clock, workload) -> None:
        """Load a YCSB-style workload's records and settle the clock."""
        with self.section("load"):
            ctx = RequestContext(clock)
            workload.load(ctx=ctx)
            clock.run_until(ctx.time)

    def drive(self, runner=run_closed_loop, *args, obs=None, **kwargs) -> RunResult:
        """Run ``runner(*args, obs=obs, **kwargs)`` inside ``drive``."""
        with self.section("drive"):
            if obs is not None:
                before = obs.metrics.snapshot()
            result = runner(*args, obs=obs, **kwargs)
        self.operations += result.operations
        self.errors += result.errors
        self.duration += result.duration
        self.latencies.merge(result.latencies)
        if obs is not None:
            delta = counter_delta(
                counter_totals(before), counter_totals(obs.metrics.snapshot())
            )
            for name, value in delta.items():
                self.registry[name] = self.registry.get(name, 0) + value
        return result


def run_figure(name: str, scale: str = "full") -> Trial:
    """Run one row at ``scale``; the trial holds its rows, verdicts and
    phase timings."""
    if name not in FIGURES:
        raise ValueError(
            f"unknown scenario {name!r}; have {', '.join(sorted(FIGURES))}"
        )
    trial = Trial(name, scale)
    trial.rows, trial.facts = trial.figure.experiment(trial)
    trial.verdicts = trial.figure.verdicts(trial.rows, trial.facts)
    return trial


def _by(rows: Rows, value: int = 2) -> Dict[tuple, object]:
    """``{(row[0], row[1]): row[value]}`` — the two-label figures' lookup."""
    return {(row[0], row[1]): row[value] for row in rows}


# -- Figures 7 and 8: sysbench on MySQL ----------------------------------------

#: Each builder takes the trial's parameters: smoke shrinks the table and
#: every cache in front of it together, keeping the cache:data ratios.
SYSBENCH_DEPLOYMENTS = (
    ("MySQL On EBS", lambda p: mysql_on_ebs(
        os_cache=p.os_cache, pool_pages=p.pool_pages)),
    ("Tiera MemcachedReplicated", lambda p: mysql_on_memcached_replicated(
        mem="512M", pool_pages=p.pool_pages)),
    ("Tiera MemcachedEBS", lambda p: mysql_on_memcached_ebs(
        mem="512M", pool_pages=p.pool_pages)),
)


def _sysbench_sweep(t: Trial, read_only: bool) -> Tuple[Rows, Facts]:
    """The deployment × hot-% sweep, plus each cell's per-tier breakdown."""
    p = t.p
    rows, breakdown = [], []
    for name, builder in SYSBENCH_DEPLOYMENTS:
        with t.section("build"):
            deployment = builder(p)
        with t.section("load"):
            load_table(deployment.db, p.rows, clock=deployment.clock)
        for hot in p.hot_fractions:
            workload = SysbenchOltp(
                deployment.db, p.rows, hot_fraction=hot, read_only=read_only
            )
            result = t.drive(
                run_closed_loop, deployment.clock, clients=p.clients,
                duration=p.duration, op_fn=workload, warmup=p.warmup,
                obs=deployment.cluster.obs,
            )
            rows.append([
                name,
                f"{hot:.0%}",
                round(result.throughput, 1),
                round(ms(result.latencies.p95()), 1),
            ])
            breakdown.extend(
                tier_breakdown_rows(f"{name} @{hot:.0%}", result.tier_report)
            )
    return rows, {"breakdown": breakdown}


SYSBENCH_FULL = dict(
    rows=50_000, hot_fractions=(0.01, 0.10, 0.20, 0.30),
    clients=8, duration=12.0, warmup=3.0,
    os_cache="8M", pool_pages=DEFAULT_POOL_PAGES,
)
SYSBENCH_SMOKE = dict(
    rows=12_500, os_cache="2M", pool_pages=DEFAULT_POOL_PAGES // 4,
    hot_fractions=(0.01, 0.30), duration=2.0, warmup=0.5,
)

EBS, REPLICATED, MC_EBS = (name for name, _ in SYSBENCH_DEPLOYMENTS)


# -- Figure 9: MemcachedS3 cost optimisation -----------------------------------


def _fig09(t: Trial) -> Tuple[Rows, Facts]:
    p = t.p

    def tps(deployment, read_only, duration):
        with t.section("load"):
            load_table(deployment.db, p.rows, clock=deployment.clock)
        workload = SysbenchOltp(
            deployment.db, p.rows, hot_fraction=p.hot, read_only=read_only
        )
        return t.drive(
            run_closed_loop, deployment.clock, clients=p.clients,
            duration=duration, op_fn=workload, warmup=p.warmup,
            obs=deployment.cluster.obs,
        ).throughput

    rows = []
    # The cache holds the hot set and part of the cold data, but not the
    # whole database ("wasn't large enough to store the entire
    # database").  The Tiera cost column adds ~$0.30 for 10 GB-equivalent
    # S3 provisioning to mirror the paper's total-cost basis; the cache
    # is co-located (no marginal cost).
    for name, builder, extra in (
        ("MySQL On EBS", lambda: mysql_on_ebs(os_cache="8M"), 0.0),
        ("MySQL On Tiera (MemcachedS3)",
         lambda: mysql_on_memcached_s3(mem="16M"), 0.30),
    ):
        for label, read_only in (("R", True), ("R/W", False)):
            with t.section("build"):
                deployment = builder()
            rows.append([
                name, label,
                round(tps(deployment, read_only, p.duration), 2),
                round(deployment.monthly_cost() + extra, 2),
            ])
    with t.section("build"):
        memory = mysql_memory_engine()
    rows.append([
        "MySQL Memory Engine", "R/W",
        round(tps(memory, False, p.memory_engine_duration), 2),
        "n/a (RAM only)",
    ])
    return rows, {}


# -- Figure 10: TPC-W bookstore ------------------------------------------------


def _bookstore(t: Trial, on_tiera: bool):
    p = t.p
    cluster, meter, registry = _stack(seed=77)
    if on_tiera:
        instance = memcached_ebs_instance(registry, mem="512M", ebs="8G")
        fs = TieraFileSystem(TieraServer(instance))
    else:
        node = cluster.add_node("web-db-host")
        # One magnetic volume shared by the database files AND the static
        # content, serving a concurrent mixed read/write stream: one
        # queue, ~100 IOPS — the 2014 standard-EBS figure under load.
        volume = SimBlockVolume(
            name="ebs", node=node, clock=cluster.clock, rng=cluster.rng,
            capacity=parse_size("8G"), meter=meter, channels=1,
            latency=SizeDependentLatency(
                LognormalLatency(0.009, 0.40), 90 * 1024 * 1024
            ),
        )
        fs = RawDeviceFileSystem(
            volume, page_cache=PageCache(parse_size(p.os_cache))
        )
    db = Database(fs, "tpcw", buffer_pool_pages=p.pool_pages)
    app = BookstoreApp(
        db, fs, items=p.items, customers=p.customers,
        seed_orders=p.seed_orders,
    )
    return cluster, app


def _fig10(t: Trial) -> Tuple[Rows, Facts]:
    p = t.p
    rows = []
    for name, on_tiera in (("TPC-W On EBS", False), ("TPC-W On Tiera", True)):
        with t.section("build"):
            cluster, app = _bookstore(t, on_tiera)
        with t.section("load"):
            app.populate(clock=cluster.clock)
        for browsers in p.browsers:
            sessions = [
                EmulatedBrowser(app, browser_id=i, seed=13)
                for i in range(browsers)
            ]
            result = t.drive(
                run_closed_loop, cluster.clock, clients=browsers,
                duration=p.duration,
                op_fn=lambda client, ctx, s=sessions: s[client].next_interaction(ctx),
                think_time=BROWSER_THINK_TIME, warmup=p.ramp,
                start_stagger=0.05, obs=cluster.obs,
            )
            rows.append([name, browsers, round(result.throughput, 2)])
    return rows, {}


# -- Figure 11 / Table 2: the performance-cost tradeoff ------------------------

#: Table 2 of the paper: Memcached / EBS shares of the data size.
TI_CONFIGS = (
    ("TI:1", 0.50, 0.30),
    ("TI:2", 0.60, 0.20),
    ("TI:3", 0.70, 0.10),
)


def _fig11(t: Trial) -> Tuple[Rows, Facts]:
    p = t.p

    def measure(name, mem_share, ebs_share, seed, distribution):
        with t.section("build"):
            cluster = Cluster(seed=seed)
            data_bytes = p.records * p.record_bytes
            instance = lru_tiered_instance(
                TierRegistry(cluster),
                name=name,
                mem=format_size(int(data_bytes * mem_share)),
                ebs=format_size(int(data_bytes * ebs_share)),
                s3="10G",
            )
            server = TieraServer(instance)
            workload = YcsbWorkload(
                server, p.records, read_proportion=1.0,
                distribution=distribution, theta=0.99, seed=5,
            )
        t.load(cluster.clock, workload)
        result = t.drive(
            run_closed_loop, cluster.clock, clients=p.clients,
            duration=p.duration, op_fn=workload, warmup=p.warmup,
            think_time=p.think_time, obs=cluster.obs,
        )
        return instance, result.latencies.mean()

    rows = []
    for index, (name, mem_share, ebs_share) in enumerate(TI_CONFIGS):
        instance, uniform = measure(
            name, mem_share, ebs_share, 100 + index, "uniform"
        )
        _, zipfian = measure(name, mem_share, ebs_share, 200 + index, "zipfian")
        rows.append([
            name,
            f"{mem_share:.0%} Mc / {ebs_share:.0%} EBS / 20% S3",
            round(ms(uniform), 2),
            round(ms(zipfian), 2),
            round(instance.monthly_cost(), 2),
        ])
    return rows, {}


# -- Figure 12: storeOnce de-duplication ---------------------------------------


def _fig12(t: Trial) -> Tuple[Rows, Facts]:
    p = t.p
    rows = []
    for index, share in enumerate(p.duplicate_shares):
        with t.section("build"):
            cluster = Cluster(seed=300 + index)
            instance = dedup_instance(
                TierRegistry(cluster),
                mem=format_size(int(p.blocks * p.block * p.cache_share)),
            )
            fs = DedupFileSystem(TieraServer(instance))
        with t.section("load"):
            # ``share`` of the blocks repeat earlier content.
            ctx = RequestContext(cluster.clock)
            unique_blocks = max(1, int(p.blocks * (1.0 - share)))
            with fs.open("/data", "w") as handle:
                for i in range(p.blocks):
                    handle.write(
                        record_payload(i % unique_blocks, 0, p.block), ctx=ctx
                    )
            cluster.clock.run_until(ctx.time)
        s3 = instance.tiers.get("tier2").service
        reader = FioReader(fs, "/data", io_size=p.block, theta=1.2, seed=8)
        result = t.drive(
            run_closed_loop, cluster.clock, clients=p.clients,
            duration=p.duration, op_fn=reader, warmup=p.warmup,
            obs=cluster.obs,
        )
        rows.append([
            f"{share:.0%}",
            round(ms(result.latencies.mean()), 2),
            s3.total_requests,
            round(fs.dedup_stats()["savings"], 2),
        ])
    return rows, {}


# -- Figure 13 / Table 3: durability vs performance vs cost --------------------


def _durability_instances(push_interval: float):
    return (
        ("High Durability", lambda reg: high_durability_instance(
            reg, mem="100M", ebs="100M", push_interval=push_interval)),
        ("Low Durability", lambda reg: low_durability_instance(
            reg, mem="100M", push_interval=push_interval)),
    )


def _durability_seed(name: str) -> int:
    """Per-instance cluster seed; crc32, not ``hash()``, whose ``str``
    values are salted per process."""
    return zlib.crc32(name.encode("utf-8")) % 1000


def _fig13(t: Trial) -> Tuple[Rows, Facts]:
    p = t.p
    rows = []
    for name, builder in _durability_instances(p.push_interval):
        with t.section("build"):
            cluster = Cluster(seed=_durability_seed(name))
            instance = builder(TierRegistry(cluster))
            workload = mixed_50_50(TieraServer(instance), p.records, seed=3)
        t.load(cluster.clock, workload)
        result = t.drive(
            run_closed_loop, cluster.clock, clients=p.clients,
            duration=p.duration, op_fn=workload, warmup=p.warmup,
            obs=cluster.obs,
        )
        rows.append([
            name,
            round(ms(result.latencies.mean("read")), 2),
            round(ms(result.latencies.mean("write")), 2),
            round(instance.monthly_cost(), 2),
            "~0 s (synchronous EBS)" if name == "High Durability"
            else f"{p.push_interval:.0f} s (S3 push window)",
        ])
    return rows, {}


def _kill_payload(key: str) -> bytes:
    stamp = hashlib.sha256(key.encode()).digest()
    return (stamp * 128)[:4096]


def _fig13_kill_restart(t: Trial) -> Tuple[Rows, Facts]:
    """PUT a batch, crash inside the push window, reopen, count survivors."""
    from repro.core.durability import reopen_instance, simulate_crash

    p = t.p
    rows = []
    for name, builder in _durability_instances(p.push_interval):
        with t.section("build"):
            cluster = Cluster(seed=_durability_seed(name))
            instance = builder(TierRegistry(cluster))
            instance.enable_durability()
            server = TieraServer(instance)
        keys = [f"rec{i:04d}" for i in range(p.kill_objects)]
        with t.section("drive"):
            for key in keys:
                ctx = RequestContext(cluster.clock)
                server.put_object(key, _kill_payload(key), ctx=ctx).raise_for_error()
                cluster.clock.run_until(ctx.time)
            cluster.clock.run_until(cluster.clock.now() + p.kill_advance)
            simulate_crash(instance)
            successor, recovery = reopen_instance(
                name=instance.name,
                tiers=list(instance.tiers.ordered()),
                policy=instance.policy,
                clock=cluster.clock,
                metadata_store=instance.metadata_store,
                eviction_chain=dict(instance.eviction_chain),
            )
            reopened = TieraServer(successor)
            survived = sum(
                1 for key in keys
                if reopened.contains(key)
                and reopened.get_object(
                    key, ctx=RequestContext(cluster.clock)
                ).raise_for_error().value == _kill_payload(key)
            )
            successor.control.shutdown()
            successor.obs.metrics.remove_collector(successor._collect_gauges)
        rows.append([
            name,
            p.kill_objects,
            survived,
            p.kill_objects - survived,
            recovery["fsck"]["counts"]["findings"],
        ])
    return rows, {}


# -- Figure 14: throttled background replication -------------------------------

THROTTLE_VARIANTS = (
    ("No Repl.", None, False),
    ("Repl. with no Cap", None, True),
    ("Repl. with Cap (40KB/s)", "40KB/s", True),
    ("Repl. with Cap (160KB/s)", "160KB/s", True),
)


def _fig14(t: Trial) -> Tuple[Rows, Facts]:
    p = t.p
    rows = []
    for index, (name, bandwidth, replicate) in enumerate(THROTTLE_VARIANTS):
        with t.section("build"):
            cluster = Cluster(seed=400 + index)
            instance = replicated_volumes_instance(
                TierRegistry(cluster), size="64M", trigger_bytes=p.trigger,
                bandwidth=bandwidth,
            )
            if not replicate:
                instance.policy.remove("replicate")
            workload = write_only(TieraServer(instance), p.records, seed=4)
        t.load(cluster.clock, workload)
        result = t.drive(
            run_closed_loop, cluster.clock, clients=p.clients,
            duration=p.duration, op_fn=workload, warmup=p.warmup,
            obs=cluster.obs,
        )
        rows.append([
            name,
            round(ms(result.latencies.mean()), 2),
            round(ms(result.latencies.p95()), 2),
            sum(1 for meta in instance.iter_meta() if "tier2" in meta.locations),
        ])
    return rows, {}


# -- Figure 15: write latency vs the write-back interval -----------------------

#: The t=0 point: write-through, the copy riding the insert.  Like
#: PROMOTE_ON_MISS below, only the spec's rule joins a built instance —
#: its tier declaration names the tier, ``Compiler.rules`` provisions
#: nothing.
WRITE_THROUGH = """
Tiera WriteThroughRule() {
    tier2: { name: EBS };
    event "write-through"(insert.into) : response {
        copy(what: insert.object, to: tier2);
    }
}
"""


def _fig15(t: Trial) -> Tuple[Rows, Facts]:
    p = t.p
    rows = []
    for index, interval in enumerate(p.intervals):
        with t.section("build"):
            cluster = Cluster(seed=500 + index)
            registry = TierRegistry(cluster)
            if interval == 0:
                # t=0 degenerates to write-through: the copy rides the insert.
                instance = low_latency_instance(
                    registry, t=3600.0, mem="64M", ebs="64M"
                )
                instance.policy.remove("write-back")
                instance.policy.add(*Compiler(parse(WRITE_THROUGH), registry).rules())
            else:
                instance = low_latency_instance(
                    registry, t=float(interval), mem="64M", ebs="64M"
                )
            workload = write_only(TieraServer(instance), p.records, seed=6)
        t.load(cluster.clock, workload)
        result = t.drive(
            run_closed_loop, cluster.clock, clients=p.clients,
            duration=p.duration, op_fn=workload, warmup=p.warmup,
            obs=cluster.obs,
        )
        rows.append([
            interval,
            round(ms(result.latencies.mean()), 2),
            round(ms(result.latencies.p95()), 2),
            f"{interval} s",
        ])
    return rows, {}


# -- Figure 16: a GrowingInstance under a growing working set ------------------

#: Reads promote cache misses back into Memcached so the cache re-warms
#: after the grow completes (the paper's recovery).
PROMOTE_ON_MISS = """
Tiera PromoteOnMiss() {
    tier1: { name: Memcached };
    event "promote-on-miss"(get.of && insert.object.location != tier1) : response {
        retrieve(what: insert.object, promote_to: tier1, exclusive: true);
    }
}
"""


def _fig16(t: Trial) -> Tuple[Rows, Facts]:
    p = t.p
    with t.section("build"):
        cluster = Cluster(seed=616)
        registry = TierRegistry(cluster)
        instance = growing_instance(
            registry, t=3600.0, mem=p.tier_size, ebs="64M",
            grow_threshold=0.75, grow_percent=100.0,
        )
        instance.policy.add(*Compiler(parse(PROMOTE_ON_MISS), registry).rules())
        server = TieraServer(instance)
    tier1 = instance.tiers.get("tier1")
    rng = random.Random(9)
    state = {"next_key": 0}
    capacity_series = []

    def sampler():
        capacity_series.append(
            (cluster.clock.now() / 60.0, tier1.used, tier1.capacity)
        )

    cluster.clock.schedule_repeating(60.0, sampler)
    sampler()

    def op(client, ctx):
        if state["next_key"] > 0 and rng.random() < p.read_fraction:
            key = f"obj{rng.randrange(state['next_key'])}"
            server.get_object(key, ctx=ctx).raise_for_error()
            return "read"
        key = f"obj{state['next_key']}"
        state["next_key"] += 1
        server.put_object(
            key, record_payload(state["next_key"], 0, p.object_bytes), ctx=ctx
        ).raise_for_error()
        return "write"

    result = t.drive(
        run_closed_loop, cluster.clock, clients=p.clients,
        duration=p.minutes * 60.0, op_fn=op, think_time=p.think_time,
        series_bucket=60.0, obs=cluster.obs,
    )
    read_latency = {
        int(start // 60): sum(samples) / len(samples)
        for start, samples in result.latency_series.buckets()
    }
    rows = [
        [
            int(minute),
            round(used / 1024.0),
            round((capacity or 0) / 1024.0),
            round(ms(read_latency.get(int(minute), 0.0)), 2),
        ]
        for minute, used, capacity in capacity_series
    ]
    return rows, {}


def _grow_minute(rows: Rows) -> int:
    return next(i for i, row in enumerate(rows) if row[2] > rows[0][2])


# -- Figure 17: surviving an EBS outage ----------------------------------------


def _outage(t: Trial, resilient: bool) -> Tuple[Rows, Facts]:
    """The outage window, optionally with the resilience layer enabled.

    ``resilient`` is the "with resilience layer" variant: circuit
    breakers fail the dead EBS tier fast and writes degrade to the
    surviving Memcached tier (leaving repair tasks queued), so clients
    ride through the outage and the monitor's canaries keep succeeding —
    no reconfiguration ever triggers.  That run adds a small think time
    (``p.think_time``): degraded writes land in Memcached at
    ~0.2 ms, and an unthrottled closed loop would issue millions of
    operations over the window (its predicates compare rates within the
    run, so pacing both phases equally changes nothing they check).
    """
    p = t.p
    with t.section("build"):
        cluster = Cluster(seed=1717)
        registry = TierRegistry(cluster)
        instance = write_through_instance(registry, mem="64M", ebs="64M")
        server = TieraServer(instance)
        if resilient:
            instance.enable_resilience()
    events = {}

    def repair():
        events["repaired_at"] = cluster.clock.now()
        tiers, rules = ephemeral_s3_reconfiguration(registry, backup_interval=120)
        instance.reconfigure(
            add_tiers=tiers, remove_tiers=["tier1", "tier2"],
            replace_policy=rules,
        )

    StorageMonitor(server, repair, probe_interval=p.probe_interval).start()
    workload = write_only(server, p.records, seed=7)
    t.load(cluster.clock, workload)
    base = cluster.clock.now()
    cluster.clock.schedule(
        p.failure_at, lambda: instance.tiers.get("tier2").service.fail()
    )
    result = t.drive(
        run_closed_loop, cluster.clock, clients=p.clients, duration=p.window,
        op_fn=workload, series_bucket=60.0,
        think_time=p.think_time,
        obs=cluster.obs,
    )
    rates = {
        int(start // 60): round(rate, 1)
        for start, rate in result.throughput_series.rate()
    }
    # Buckets with zero completions do not appear in the series: fill.
    rows = [
        [minute, rates.get(minute, 0.0)]
        for minute in sorted(set(rates) | set(range(int(p.window // 60))))
    ]
    events["errors"] = result.errors
    events.setdefault("repaired_at", None)
    if events["repaired_at"] is not None:
        events["repaired_minute"] = (events["repaired_at"] - base) / 60.0
    if resilient:
        res = instance.resilience
        events["pending_repairs"] = res.repair_queue.pending()
        events["degraded_writes"] = res.degraded_write_count
        events["breaker"] = res.breaker_states().get("tier2", {}).get("state")
    return rows, events


def _rate(rows: Rows, minute: int) -> float:
    return dict((row[0], row[1]) for row in rows)[minute]


# -- Figure 18: the control layer's overhead -----------------------------------


def _fig18(t: Trial) -> Tuple[Rows, Facts]:
    p = t.p

    def with_control_layer(clients, seed):
        with t.section("build"):
            cluster = Cluster(seed=seed)
            instance = write_through_instance(
                TierRegistry(cluster), mem="64M", ebs="64M"
            )
            workload = YcsbWorkload(
                TieraServer(instance), p.records, read_proportion=0.5,
                update_proportion=0.5, distribution="zipfian", seed=2,
            )
        t.load(cluster.clock, workload)
        return t.drive(
            run_closed_loop, cluster.clock, clients=clients,
            duration=p.duration, op_fn=workload, warmup=p.warmup,
            obs=cluster.obs,
        )

    def without_control_layer(clients, seed):
        """The application drives both tiers itself: no events, no
        policy, no metadata — the baseline the paper compares against."""
        with t.section("build"):
            cluster = Cluster(seed=seed)
            registry = TierRegistry(cluster)
            size = 64 * 1024 * 1024
            tier1 = registry.create("Memcached", tier_name="tier1", size=size)
            tier2 = registry.create("EBS", tier_name="tier2", size=size)
            rng = random.Random(2)
            keys = ZipfianKeys(p.records, theta=0.99, seed=3, scramble=True)
        with t.section("load"):
            load_ctx = RequestContext(cluster.clock)
            for key in range(p.records):
                payload = record_payload(key, 0, p.record_bytes)
                tier1.put(f"user{key:012d}", payload, load_ctx)
                tier2.put(f"user{key:012d}", payload, load_ctx)
            cluster.clock.run_until(load_ctx.time)

        def op(client, ctx):
            key = f"user{keys.next():012d}"
            if rng.random() < 0.5:
                tier1.get(key, ctx)
                return "read"
            payload = record_payload(keys.next(), 1, p.record_bytes)
            tier1.put(key, payload, ctx)
            tier2.put(key, payload, ctx)
            return "write"

        return t.drive(
            run_closed_loop, cluster.clock, clients=clients,
            duration=p.duration, op_fn=op, warmup=p.warmup, obs=cluster.obs,
        )

    rows = []
    for index, clients in enumerate(p.client_counts):
        with_cl = with_control_layer(clients, 800 + index)
        without_cl = without_control_layer(clients, 800 + index)
        for label in ("read", "write"):
            base = without_cl.latencies.mean(label)
            rows.append([
                round(with_cl.throughput),
                label,
                round(ms(base), 3),
                round(ms(with_cl.latencies.mean(label)), 3),
                round(
                    100.0 * (with_cl.latencies.mean(label) / max(base, 1e-12) - 1.0),
                    2,
                ),
            ])
    return rows, {}


# -- Extension: throughput vs batch pipeline depth -----------------------------


def _batch_scaling(t: Trial) -> Tuple[Rows, Facts]:
    """The High Durability instance under one seeded YCSB 50/50 op stream
    at each pipeline depth; a fresh stack per depth, so depth changes only
    the overlap."""
    p = t.p
    rows = []
    serial = None
    for depth in p.depths:
        with t.section("build"):
            cluster = Cluster(seed=p.seed)
            instance = high_durability_instance(
                TierRegistry(cluster), mem="100M", ebs="100M"
            )
            server = TieraServer(instance)
            workload = mixed_50_50(server, p.records, seed=3)
        t.load(cluster.clock, workload)
        result = t.drive(
            run_pipelined, cluster.clock, server, workload, p.operations,
            depth=depth, obs=cluster.obs,
        )
        serial = serial or result.throughput
        rows.append([
            depth,
            round(result.throughput, 1),
            round(result.throughput / serial, 2),
            round(ms(result.latencies.mean("get")), 2),
            round(ms(result.latencies.mean("put")), 2),
            result.errors,
        ])
    return rows, {}


# -- Extension: heat telemetry on a shifting hot set ---------------------------

RECALL_GATE = 0.90
OVERHEAD_GATE = 0.05


def _heat_key(index: int) -> str:
    return f"user{index:06d}"


def _heat_stream(t: Trial, enable_heat: bool):
    """Drive the shifting-hot-set stream; returns (phases, summary, end).

    The op stream is a pure function of the seed, so the enabled and
    disabled runs execute byte-identical request sequences.
    """
    p = t.p
    with t.section("build"):
        cluster = Cluster(seed=p.seed)
        instance = memcached_ebs_instance(
            TierRegistry(cluster), mem="64M", ebs="256M"
        )
        server = TieraServer(instance)
        tracker = None
        if enable_heat:
            server.configure(
                "heat", top_k=p.top_k, hot_min=p.hot_min,
                max_objects=p.max_objects, sample_interval=5.0,
            ).raise_for_error()
            tracker = server.obs.heat
    keys = ZipfianKeys(p.records, theta=p.theta, seed=p.seed + 1)
    mix = random.Random(p.seed + 2)
    ctx = RequestContext(cluster.clock)
    written = set()
    phases = []
    with t.section("drive"):
        for phase in range(p.phases):
            true_counts = {}
            for _ in range(p.ops_per_phase):
                rank = min(keys.next_rank(), p.records - 1)
                index = (rank + phase * p.shift) % p.records
                key = _heat_key(index)
                true_counts[index] = true_counts.get(index, 0) + 1
                if mix.random() < 0.5 and key in written:
                    server.get_object(key, ctx=ctx).raise_for_error()
                else:
                    payload = record_payload(index, 0, p.record_size)
                    server.put_object(key, payload, ctx=ctx).raise_for_error()
                    written.add(key)
            cluster.clock.run_until(ctx.time)
            true_hot = [
                _heat_key(index)
                for index, _ in sorted(
                    true_counts.items(), key=lambda item: (-item[1], item[0])
                )[:p.hot_true]
            ]
            detected = set(tracker.hot_keys()) if tracker is not None else set()
            hit = sum(1 for key in true_hot if key in detected)
            phases.append([
                phase,
                len(true_counts),
                ", ".join(key[-3:] for key in true_hot),
                hit,
                round(hit / len(true_hot), 4),
            ])
    summary = (
        server.invoke("heat", "summary").state if tracker is not None else None
    )
    return phases, summary, ctx.time


def _heat_telemetry(t: Trial) -> Tuple[Rows, Facts]:
    """Recall, bounded memory and observer overhead of the heat tracker.

    Per phase the zipfian hot set rotates through the keyspace; recall
    is the fraction of the phase's truly hottest keys in the tracker's
    hot set at phase end.  The identical stream replayed with the
    tracker disabled must land on the same virtual timeline.
    """
    phases, summary, on_t = _heat_stream(t, enable_heat=True)
    _, _, off_t = _heat_stream(t, enable_heat=False)
    rows = [row[:4] + [f"{row[4]:.0%}"] for row in phases]
    facts = {
        "mean_recall": round(sum(row[4] for row in phases) / len(phases), 4),
        "sketch_entries": summary["sketch_entries"],
        "top_k": t.p.top_k,
        "tracked_objects": summary["tracked_objects"],
        "max_objects": t.p.max_objects,
        "virtual_seconds_enabled": round(on_t, 6),
        "virtual_seconds_disabled": round(off_t, 6),
        "virtual_overhead": round(abs(on_t - off_t) / off_t, 6) if off_t else 0.0,
    }
    return rows, facts


def _heat_note(f: Facts, p: SimpleNamespace) -> str:
    return (
        f"mean recall {f['mean_recall']:.0%} (gate {RECALL_GATE:.0%}); "
        f"sketch {f['sketch_entries']}/{f['top_k']} entries "
        f"over a {p.records}-key space; "
        f"tracked {f['tracked_objects']}/{f['max_objects']} objects;\n"
        f"virtual overhead {f['virtual_overhead']:.4%} with the tracker "
        f"enabled (gate < {OVERHEAD_GATE:.0%})."
    )


# -- Extension: adaptive placement vs static watermark caching -----------------

#: Heat-tracker configuration for the adaptive run: a short EWMA window
#: (so last phase's heat decays within a phase) and a sketch big enough
#: to hold the active set with room for scan churn at the tail.
HEAT_CONFIG = dict(
    windows=(2.0, 10.0), top_k=128, max_objects=768,
    hot_min=2, sample_interval=2.5,
)

#: Placement-engine configuration: cycle every 0.2 virtual seconds,
#: admit anything the sketch confirmed whose score clears 0.3, and keep
#: enough move/pre-warm budget to absorb a whole hot-set shift in a few
#: cycles.
PLACEMENT_CONFIG = dict(
    objective="balanced", interval=0.2, hysteresis=2.0, min_score=0.3,
    max_moves=24, prewarm_limit=24, high_watermark=0.95, refine=True,
)

#: Reads faster than this came from Memcached (mem median ~0.31 ms, EBS
#: ~3.5 ms): a promote-on-miss rule serves the read from the cache it
#: just filled, so ``result.tier`` cannot tell hits from misses.
CACHE_HIT_CUTOFF = 0.0015


def _placement_instance(registry: TierRegistry, p, name: str) -> TieraInstance:
    """One of the three deployments over the same Memcached-over-EBS
    pair, the packaged spec of that name: ``write-through-lru`` (the
    classic watermark policy), ``demand-lru`` (the stronger static
    baseline) or ``adaptive`` (the placement engine decides)."""
    mem = f"{p.cache_records * p.record_size // 1024}K"
    return compile_spec(
        paper_spec(name.replace("-", "_")), registry, args={"mem": mem}
    )


PLACEMENT_POLICIES = ("write-through-lru", "demand-lru", "adaptive")


def _percentile(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values)) - 1))
    return sorted_values[index]


def _placement_run(t: Trial, policy: str) -> Dict[str, object]:
    """Drive the shared op stream against one deployment.

    The op sequence (key, kind, payload) is a pure function of the seed —
    identical across the three policies — so latency and cost deltas
    come from placement alone.
    """
    p = t.p
    with t.section("build"):
        cluster = Cluster(seed=p.seed)
        registry = TierRegistry(cluster)
        instance = _placement_instance(registry, p, policy)
        server = TieraServer(instance)
    ctx = RequestContext(cluster.clock)
    with t.section("load"):
        for index in range(p.records):
            server.put_object(
                f"rec{index:05d}", record_payload(index, 0, p.record_size),
                ctx=ctx,
            ).raise_for_error()
        cluster.clock.run_until(ctx.time)
    if policy == "adaptive":
        server.configure("heat", **HEAT_CONFIG).raise_for_error()
        server.configure("placement", **PLACEMENT_CONFIG).raise_for_error()

    zipf = ZipfianKeys(p.active, theta=p.theta, seed=p.seed + 1)
    mix = random.Random(p.seed + 2)
    scan = random.Random(p.seed + 3)
    versions = {}
    read_latencies = []
    state = {"reads": 0, "hits": 0, "ops": 0, "measure": False}

    def one_op(offset: int) -> None:
        draw = mix.random()
        if draw < p.scan_fraction:
            index = scan.randrange(p.records)
            kind = "scan"
        else:
            rank = min(zipf.next_rank(), p.active - 1)
            # Entrants surface at the head of the ranking; the old tail
            # drops out of the active window each phase.
            index = (rank - offset) % p.records
            kind = "write" if draw < p.scan_fraction + p.write_fraction else "read"
        if kind == "write":
            version = versions.get(index, 0) + 1
            versions[index] = version
            server.put_object(
                f"rec{index:05d}", record_payload(index, version, p.record_size),
                ctx=ctx,
            ).raise_for_error()
        else:
            result = server.get_object(f"rec{index:05d}", ctx=ctx)
            result.raise_for_error()
            if state["measure"]:
                read_latencies.append(result.latency)
                state["reads"] += 1
                if result.latency < CACHE_HIT_CUTOFF:
                    state["hits"] += 1
        state["ops"] += 1
        ctx.wait(p.think_time)
        if state["ops"] % p.drain_every == 0:
            cluster.clock.run_until(ctx.time)

    with t.section("drive"):
        # Unmeasured warmup on phase 0's hot set: every policy gets the
        # same ramp to a filled cache before the meter starts.
        for _ in range(p.warmup_ops):
            one_op(0)
        cluster.clock.run_until(ctx.time)
        registry.meter.reset()
        state["measure"] = True
        for phase in range(p.phases):
            for _ in range(p.ops_per_phase):
                one_op(phase * p.shift)
            cluster.clock.run_until(ctx.time)

    reads, hits = state["reads"], state["hits"]
    read_latencies.sort()
    meter = registry.meter
    request_charges = meter.request_charges()
    storage = instance.monthly_cost()
    report = {
        "hit_rate": round(hits / reads, 4) if reads else 0.0,
        "read_p50_ms": round(_percentile(read_latencies, 0.50) * 1000, 4),
        "read_p95_ms": round(_percentile(read_latencies, 0.95) * 1000, 4),
        "read_p99_ms": round(_percentile(read_latencies, 0.99) * 1000, 4),
        "ebs_reads": meter.count("ebs.get"),
        "total_cost": round(storage + request_charges, 6),
        "moves": instance.placement.status()["moves"]
        if policy == "adaptive" else "-",
    }
    instance.shutdown()
    return report


def _adaptive_placement(t: Trial) -> Tuple[Rows, Facts]:
    """Measurement-driven tiering vs fixed watermark rules.

    A skewed-but-drifting hot set mixed with scan traffic: an LRU
    watermark cache admits every miss, so one-off scan reads flush the
    tail of the genuine hot set, while the placement engine admits only
    sketch-confirmed frequent keys and pins them with hysteresis.
    """
    results = {name: _placement_run(t, name) for name in PLACEMENT_POLICIES}
    rows = [
        [
            name,
            f"{r['hit_rate']:.1%}",
            f"{r['read_p50_ms']:.3f}",
            f"{r['read_p95_ms']:.3f}",
            f"{r['read_p99_ms']:.3f}",
            r["ebs_reads"],
            f"${r['total_cost']:.4f}",
            r["moves"],
        ]
        for name, r in results.items()
    ]
    statics = [r for name, r in results.items() if name != "adaptive"]
    facts = {
        "adaptive_p95_ms": results["adaptive"]["read_p95_ms"],
        "adaptive_total_cost": results["adaptive"]["total_cost"],
        "best_static_p95_ms": min(r["read_p95_ms"] for r in statics),
        "best_static_total_cost": min(r["total_cost"] for r in statics),
    }
    return rows, facts


def _p95_ok(f: Facts) -> bool:
    return f["adaptive_p95_ms"] <= f["best_static_p95_ms"]


def _cost_ok(f: Facts) -> bool:
    return f["adaptive_total_cost"] <= f["best_static_total_cost"]


def _placement_note(f: Facts, p: SimpleNamespace) -> str:
    return (
        f"gates: p95 {'PASS' if _p95_ok(f) else 'FAIL'} "
        f"(adaptive {f['adaptive_p95_ms']:.3f} ms "
        f"vs best static {f['best_static_p95_ms']:.3f} ms), "
        f"cost {'PASS' if _cost_ok(f) else 'FAIL'} "
        f"(adaptive ${f['adaptive_total_cost']:.4f} "
        f"vs best static ${f['best_static_total_cost']:.4f}); "
        f"{p.records}-key space, {p.active}-key hot set "
        f"shifting {p.shift}/phase, {p.cache_records}-record cache."
    )


# -- Fault drills: the simulation harness's presets -----------------------------


def _chaos(t: Trial) -> Tuple[Rows, Facts]:
    """Each (scenario, deployment, seed, resilient) cell is one
    :func:`run_chaos` report: availability, p99, MTTR and corrupt reads,
    baseline vs the resilience layer."""
    p = t.p
    rows, cells = [], []
    for scenario, deployment, seed, resilient in p.cells:
        with t.section("drive"):
            report = run_chaos(
                scenario=scenario, deployment=deployment, seed=seed,
                resilient=resilient, duration=p.duration,
            )
        t.tally(report["operations"], report["duration"])
        res = report.get("resilience", {})
        queue = res.get("repair_queue", {})
        mode = "resilient" if resilient else "baseline"
        p99 = max((v["p99"] for v in report["latency_seconds"].values()),
                  default=0.0)
        rows.append([
            scenario, deployment, seed, mode,
            round(report["availability"]["overall"] * 100, 2),
            round(p99 * 1000, 1),
            report["mttr"]["mean_seconds"],
            report["corrupt_reads"],
            res.get("retries", 0),
            res.get("degraded_writes", 0),
            res.get("replays", 0),
        ])
        cells.append({
            "scenario": scenario, "deployment": deployment, "seed": seed,
            "mode": mode,
            "availability": report["availability"],
            "corrupt_reads": report["corrupt_reads"],
            "checked": report["model"]["checked"],
            "violations": report["model"]["violations"],
            "retries": res.get("retries", 0),
            "read_repairs": res.get("read_repairs", 0),
            "enqueued": queue.get("enqueued", 0),
            "pending": queue.get("pending", 0),
            "replays": res.get("replays", 0),
            "sha256": report_digest(report),
        })
    return rows, {"cells": cells}


def _cells(f: Facts, **match) -> List[Dict[str, object]]:
    return [c for c in f["cells"] if all(c[k] == v for k, v in match.items())]


def _headline(f: Facts, scenario: str, mode: str) -> Dict[str, object]:
    """The seed-2014 write-through cell the headline claims are about."""
    (cell,) = _cells(
        f, scenario=scenario, deployment="write-through", seed=2014, mode=mode
    )
    return cell


def _replays_every_redirect(cell: Dict[str, object]) -> bool:
    return (cell["retries"] > 0 and cell["enqueued"] > 0
            and cell["pending"] == 0 and cell["enqueued"] == cell["replays"])


def _crash_sweep(t: Trial) -> Tuple[Rows, Facts]:
    """:func:`run_crash_sweep` on each deployment: every boundary of the
    scripted workload crashed, reopened and verified."""
    p = t.p
    rows, sweeps = [], []
    for deployment in p.deployments:
        with t.section("drive"):
            report = run_crash_sweep(deployment, seed=p.seed)
        t.tally(report["swept"])
        reference, summary = report["reference"], report["summary"]
        rows.append([
            deployment, reference["crash_points"], report["swept"],
            summary["ok"], reference["boundary_digests"],
            sum(point["replayed"] for point in report["points"]),
        ])
        sweeps.append({
            "deployment": deployment,
            "crash_points": reference["crash_points"],
            "ok": summary["ok"],
            "clean": summary["clean"],
            "sha256": report_digest(report),
        })
    return rows, {"sweeps": sweeps}


def _shard_failover(t: Trial) -> Tuple[Rows, Facts]:
    """:func:`run_failover` (kill 1 of 4 replicated shards) and
    :func:`run_migration_crash` (crash ``add_shard`` at its boundaries)."""
    p = t.p
    with t.section("drive"):
        report = run_failover(**p.failover)
        crash = run_migration_crash(**p.migration)
    t.tally(report["workload"]["operations"], report["workload"]["duration"])
    t.tally(len(crash["swept"]))
    hints, ae = report["hints"], report["anti_entropy"]
    rows = [
        ["availability (overall)", report["availability"]["overall"]],
        ["operations", report["workload"]["operations"]],
        ["acked writes / lost",
         f"{report['acked_writes']} / {report['acked_write_loss']}"],
        ["hints recorded / replayed / pending",
         f"{hints['recorded']} / {hints['replayed']} / {hints['pending']}"],
        ["anti-entropy runs / repairs / divergent",
         f"{ae['runs']} / {ae['repairs']} / {ae['final_divergent']}"],
        ["detector transitions", len(report["detector_transitions"])],
        ["fsck clean", report["fsck"]["clean"]],
        ["migration boundaries swept / clean",
         f"{len(crash['swept'])} / {sum(e['ok'] for e in crash['swept'])}"],
    ]
    facts = {
        # the fields FAILOVER_CHECKS read, at their report paths
        "failover": {
            "availability": {"overall": report["availability"]["overall"]},
            "acked_write_loss": report["acked_write_loss"],
            "model": report["model"],
            "hints": hints,
            "anti_entropy": {
                "final_divergent": ae["final_divergent"],
                "repairs": ae["repairs"],
            },
            "fsck": report["fsck"],
            "sha256": report_digest(report),
        },
        "migration": {
            "swept": len(crash["swept"]),
            "clean": crash["clean"],
            "sha256": report_digest(crash),
        },
    }
    return rows, facts


def _backup_lifecycle(t: Trial) -> Tuple[Rows, Facts]:
    """:func:`run_backup_lifecycle`: snapshot bytes, full vs incremental,
    then PITR and the scheduled restore drill."""
    p = t.p
    with t.section("drive"):
        summary = run_backup_lifecycle(
            records=p.records, waves=p.waves, section=t.section
        )
    t.tally(summary["records"] + summary["waves"] * summary["changed_per_wave"])
    full = summary["snapshots"][0]["bytes"]
    rows = [
        [e["id"], e["kind"], e["objects"], e["bytes"], round(e["bytes"] / full, 3)]
        for e in summary["snapshots"]
    ]
    facts = {
        "incremental_vs_full_bytes": summary["incremental_vs_full_bytes"],
        "pitr": summary["pitr"],
        "verification": summary["verification"],
        "sha256": report_digest(summary),
    }
    return rows, facts


# -- Ablations: one design choice, two specs -----------------------------------

#: Figure 5: a full cache evicts at insert time, by the policy under
#: test; no read-side promotion.  LRU moves the oldest object out...
LRU_EVICTION = """
Tiera LruEviction(size mem) {
    tier1: { name: Memcached, size: mem };
    tier2: { name: EBS, size: 64M };
    event "placement"(insert.into) : response {
        if (tier1.filled) {
            move(what: tier1.oldest, to: tier2);
        }
        store(what: insert.object, to: tier1);
    }
}
"""
#: ...and MRU the newest.
MRU_EVICTION = LRU_EVICTION.replace("Lru", "Mru").replace("oldest", "newest")


def _ablation_eviction(t: Trial) -> Tuple[Rows, Facts]:
    """LRU vs MRU under zipfian updates (which keep re-inserting the hot
    head, so the policy keeps choosing victims) and zipfian reads (which
    reveal where the head ended up)."""
    p = t.p
    rows = []
    for kind, spec, seed in (("LRU", LRU_EVICTION, 910),
                             ("MRU", MRU_EVICTION, 911)):
        with t.section("build"):
            cluster = Cluster(seed=seed)
            instance = compile_spec(
                spec, TierRegistry(cluster),
                args={"mem": int(p.records * 4096 * p.cache_share)},
            )
            workload = YcsbWorkload(
                TieraServer(instance), p.records, read_proportion=0.5,
                update_proportion=0.5, distribution="zipfian", theta=0.99,
                seed=4,
            )
        t.load(cluster.clock, workload)
        result = t.drive(
            run_closed_loop, cluster.clock, clients=p.clients,
            duration=p.duration, op_fn=workload, warmup=p.warmup,
            think_time=p.think_time, obs=cluster.obs,
        )
        rows.append([
            kind,
            round(ms(result.latencies.mean("read")), 3),
            round(ms(result.latencies.p95("read")), 2),
            round(result.throughput),
        ])
    return rows, {}


#: The inclusive alternative to Table 2's exclusive tiering: every
#: object also lives in S3, so Memcached is a pure cache whose evictions
#: are free drops.
INCLUSIVE_CACHE = """
Tiera InclusiveCache(size mem) {
    tier1: { name: Memcached, size: mem, evict_to: drop };
    tier3: { name: S3 };
    event "cache-and-persist"(insert.into) : response {
        store(what: insert.object, to: tier1);
        copy(what: insert.object, to: tier3);
    }
    event "promote"(get.of && insert.object.location != tier1) : response {
        retrieve(what: insert.object, promote_to: tier1);
    }
}
"""


def _ablation_inclusive(t: Trial) -> Tuple[Rows, Facts]:
    """Figure 11's TI:2 shape both ways: read latency, and how many
    objects have a durable copy."""
    p = t.p
    data = p.records * p.record_bytes
    placements = (
        ("exclusive (paper's TI:2)", 920, lambda registry: lru_tiered_instance(
            registry, "TI2-exclusive",
            mem=format_size(int(data * p.mem_share)),
            ebs=format_size(int(data * p.ebs_share)),
        )),
        ("inclusive (cache over S3)", 921, lambda registry: compile_spec(
            INCLUSIVE_CACHE, registry, args={"mem": int(data * p.mem_share)}
        )),
    )
    rows = []
    for name, seed, builder in placements:
        for distribution in ("uniform", "zipfian"):
            with t.section("build"):
                cluster = Cluster(seed=seed)
                instance = builder(TierRegistry(cluster))
                workload = YcsbWorkload(
                    TieraServer(instance), p.records, read_proportion=1.0,
                    distribution=distribution, theta=0.99, seed=5,
                )
            t.load(cluster.clock, workload)
            result = t.drive(
                run_closed_loop, cluster.clock, clients=p.clients,
                duration=p.duration, op_fn=workload, warmup=p.warmup,
                obs=cluster.obs,
            )
            durable = sum(
                1 for meta in instance.iter_meta()
                if any(instance.tiers.get(tier).durable for tier in meta.locations)
            )
            rows.append([
                name, distribution, round(ms(result.latencies.mean()), 2), durable,
            ])
    return rows, {"records": p.records}


#: §3's threshold events: an expensive response (copy all of tier1 to
#: S3) on a fill threshold, evaluated with the triggering request...
FILL_BACKUP = """
Tiera FillBackup() {
    tier1: { name: Memcached, size: 32M };
    tier2: { name: S3 };
    event "place"(insert.into) : response {
        store(what: insert.object, to: tier1);
    }
    event "backup"(tier1.filled >= 10%) : response {
        copy(what: object.location == tier1, to: tier2);
    }
}
"""
#: ...or off the client path.
BACKGROUND_FILL_BACKUP = FILL_BACKUP.replace(
    'event "backup"', 'background event "backup"'
)


def _ablation_background_events(t: Trial) -> Tuple[Rows, Facts]:
    """What a foreground vs a background threshold response costs client
    PUTs.  Every PUT's latency is recorded, not just those completing in
    the window: the one that trips the foreground threshold can outlast
    the run, and that spike is the measurement."""
    p = t.p
    rows = []
    for name, spec, seed in (("foreground threshold", FILL_BACKUP, 900),
                             ("background threshold", BACKGROUND_FILL_BACKUP, 901)):
        with t.section("build"):
            cluster = Cluster(seed=seed)
            instance = compile_spec(spec, TierRegistry(cluster))
            workload = insert_stream(TieraServer(instance), seed=3)
        latencies = []

        def op(client, ctx):
            start = ctx.time
            label = workload(client, ctx)
            latencies.append(ctx.time - start)
            return label

        t.drive(
            run_closed_loop, cluster.clock, clients=p.clients,
            duration=p.duration, op_fn=op, obs=cluster.obs,
        )
        latencies.sort()
        rows.append([
            name,
            round(ms(sum(latencies) / len(latencies)), 2),
            round(ms(latencies[int(0.95 * (len(latencies) - 1))]), 2),
            round(ms(latencies[-1]), 1),
        ])
    return rows, {}


# -- the table -----------------------------------------------------------------

FIGURES: Dict[str, Figure] = {
    "fig07": Figure(
        output="fig07_mysql_readonly",
        title="Figure 7 — sysbench read-only, 8 threads (TPS and p95 latency)",
        headers=("deployment", "% hot", "TPS", "p95 (ms)"),
        experiment=lambda t: _sysbench_sweep(t, read_only=True),
        full=SYSBENCH_FULL,
        smoke=SYSBENCH_SMOKE,
        note="Paper: MemcachedReplicated +47% TPS over EBS; MemcachedEBS "
             "similar to MemcachedReplicated; EBS declines ~115→~45 TPS "
             "as %hot grows.",
        breakdown="Figure 7 — per-tier activity during the measured window",
        checks={
            "replicated > 1.3x EBS at 1% hot":
                lambda rows, f: _by(rows)[(REPLICATED, "1%")]
                > 1.3 * _by(rows)[(EBS, "1%")],
            "EBS falls > 2x from 1% to 30% hot":
                lambda rows, f: _by(rows)[(EBS, "1%")]
                > 2.0 * _by(rows)[(EBS, "30%")],
            "per-tier breakdown covers the Tiera deployments":
                lambda rows, f: any(
                    row[0].startswith("Tiera") for row in f["breakdown"]
                ),
        },
    ),
    "fig08": Figure(
        output="fig08_mysql_readwrite",
        title="Figure 8 — sysbench read-write, 8 threads (TPS and p95 latency)",
        headers=("deployment", "% hot", "TPS", "p95 (ms)"),
        experiment=lambda t: _sysbench_sweep(t, read_only=False),
        full=SYSBENCH_FULL,
        smoke=SYSBENCH_SMOKE,
        note="Paper: MemcachedReplicated +125% TPS over EBS; MemcachedEBS "
             "≈ EBS (EBS writes are the bottleneck).",
        breakdown="Figure 8 — per-tier activity during the measured window",
        checks={
            "replicated > 1.7x EBS at 1% hot":
                lambda rows, f: _by(rows)[(REPLICATED, "1%")]
                > 1.7 * _by(rows)[(EBS, "1%")],
            # "nearly equal" per the paper
            "MemcachedEBS within 35% of EBS at 1% hot":
                lambda rows, f: 0.65
                < _by(rows)[(MC_EBS, "1%")] / _by(rows)[(EBS, "1%")]
                < 1.35,
        },
    ),
    "fig09": Figure(
        output="fig09_cost",
        title="Figure 9 — throughput (log-scale in the paper) and monthly cost",
        headers=("deployment", "workload", "TPS", "cost $/month"),
        experiment=_fig09,
        full=dict(
            rows=50_000, hot=0.10, clients=8, duration=12.0, warmup=3.0,
            # the Memory Engine needs a long window to commit at all
            memory_engine_duration=120.0,
        ),
        smoke=dict(rows=2_500, duration=2.0, warmup=0.5,
                   memory_engine_duration=10.0),
        note="Paper: Tiera(MemcachedS3) ≈ EBS on read-only at a fraction "
             "of the cost; slower on read-write (S3 writes); Memory "
             "Engine ≈ 0.15 TPS.",
        # "Comparable" on the paper's log-scale axis: the same order of
        # magnitude on read-only, clearly degraded on read-write.
        checks={
            "Tiera read-only > 0.25x EBS read-only":
                lambda rows, f: _by(rows)[("MySQL On Tiera (MemcachedS3)", "R")]
                > 0.25 * _by(rows)[("MySQL On EBS", "R")],
            "Tiera read-write below Tiera read-only":
                lambda rows, f: _by(rows)[("MySQL On Tiera (MemcachedS3)", "R/W")]
                < _by(rows)[("MySQL On Tiera (MemcachedS3)", "R")],
            "Memory Engine below 1 TPS":
                lambda rows, f: _by(rows)[("MySQL Memory Engine", "R/W")] < 1.0,
        },
    ),
    "fig10": Figure(
        output="fig10_tpcw",
        title="Figure 10 — TPC-W shopping mix, average WIPS",
        headers=("deployment", "emulated browsers", "WIPS"),
        experiment=_fig10,
        full=dict(
            browsers=(5, 10, 15, 20, 25),
            duration=150.0,  # paper: 600 s; scaled for bench wall time
            ramp=30.0,       # paper: 100 s ramp-up
            items=10_000, customers=100_000, seed_orders=20_000,
            # The paper caps instance memory at 1 GB "to ensure both
            # MySQL and the web server performed sufficient IO": tiny
            # OS cache and buffer pool.
            os_cache="2M", pool_pages=64,
        ),
        # smaller caches with the smaller store keep EBS I/O-bound
        smoke=dict(browsers=(5, 15), duration=40.0, ramp=10.0,
                   items=500, customers=5_000, seed_orders=1_000,
                   os_cache="128K", pool_pages=8),
        note="Paper: Tiera +46% (5 EBs) to +69% (15 EBs) over EBS.",
        checks={
            "Tiera beats EBS at every browser count":
                lambda rows, f: all(
                    _by(rows)[("TPC-W On Tiera", row[1])]
                    > _by(rows)[("TPC-W On EBS", row[1])]
                    for row in rows
                ),
            "EBS WIPS rise from 5 to 15 browsers":
                lambda rows, f: _by(rows)[("TPC-W On EBS", 15)]
                > _by(rows)[("TPC-W On EBS", 5)],
        },
    ),
    "fig11": Figure(
        output="fig11_perf_cost",
        title="Figure 11 / Table 2 — avg read latency (ms) and monthly cost",
        headers=("instance", "configuration", "uniform (ms)", "zipfian (ms)",
                 "cost $/mo"),
        experiment=_fig11,
        full=dict(
            records=2_000, record_bytes=4096,  # ~8 MB of data
            clients=14,  # "simulated read requests from 14 clients"
            duration=40.0, warmup=10.0,
            # The paper's ~5-8 ms average latencies are only possible if
            # the 14 clients issue requests at a modest rate (a saturated
            # magnetic EBS tier alone would exceed them).
            think_time=1.0,
        ),
        note="Paper: latency falls and cost rises from TI:1 to TI:3; "
             "zipfian below uniform at each point.",
        checks={
            "uniform latency falls TI:1 > TI:2 > TI:3":
                lambda rows, f: rows[0][2] > rows[1][2] > rows[2][2],
            "cost rises TI:1 < TI:2 < TI:3":
                lambda rows, f: rows[0][4] < rows[1][4] < rows[2][4],
            "zipfian below uniform everywhere":
                lambda rows, f: all(row[3] < row[2] for row in rows),
        },
    ),
    "fig12": Figure(
        output="fig12_dedup",
        title="Figure 12 — storeOnce: read latency and total S3 requests",
        headers=("% duplicates", "avg read latency (ms)", "S3 requests",
                 "space savings"),
        experiment=_fig12,
        full=dict(
            blocks=2_000, block=4096,  # ~8 MB logical data
            cache_share=0.20,          # "20% Memcached and 80% S3"
            duplicate_shares=(0.0, 0.25, 0.50, 0.75),
            clients=14, duration=30.0, warmup=8.0,
        ),
        smoke=dict(blocks=500, duplicate_shares=(0.0, 0.75),
                   clients=4, duration=6.0, warmup=2.0),
        note="Paper: latency and S3 request count both fall as the "
             "duplicate share rises 0% → 75%.",
        checks={
            "75% duplicates read faster than 0%":
                lambda rows, f: rows[-1][1] < rows[0][1],
            "75% duplicates hit S3 less than 0%":
                lambda rows, f: rows[-1][2] < rows[0][2],
            "S3 requests never rise with the duplicate share":
                lambda rows, f: all(
                    a[2] >= b[2] for a, b in zip(rows, rows[1:])
                ),
        },
    ),
    "fig13": Figure(
        output="fig13_durability",
        title="Figure 13 / Table 3 — latency, cost, and worst-case loss window",
        headers=("instance", "read (ms)", "write (ms)", "cost $/mo",
                 "loss window"),
        experiment=_fig13,
        full=dict(records=1_000, clients=8, duration=30.0, warmup=8.0,
                  push_interval=120.0),
        smoke=dict(records=300, clients=2, duration=3.0, warmup=1.0),
        note="Paper: High Durability has higher write latency and cost; "
             "Low Durability trades a 2-minute loss window for the best "
             "write latency.  Reads are Memcached-served in both.",
        checks={
            "high durability writes slower": lambda rows, f: rows[0][2] > rows[1][2],
            "high durability costs more": lambda rows, f: rows[0][3] > rows[1][3],
            # Reads come from Memcached in both: same order of magnitude.
            "reads under 5 ms on both":
                lambda rows, f: rows[0][1] < 5.0 and rows[1][1] < 5.0,
        },
    ),
    "fig13_kill_restart": Figure(
        output="fig13_kill_restart",
        title="Figure 13 (kill-and-restart) — objects surviving a crash "
              "inside the S3 push window",
        headers=("instance", "acked", "survived", "lost", "recovery repairs"),
        experiment=_fig13_kill_restart,
        full=dict(push_interval=120.0, kill_objects=64,
                  kill_advance=30.0),  # crash inside the push window
        smoke=dict(kill_objects=16),
        note="Process killed 30 s after the last PUT (push interval 120 s): "
             "Memcached state is lost, the metadata store survives, and "
             "recovery replays the journal then scrubs.  High Durability's "
             "synchronous EBS copy keeps every acked object; Low Durability "
             "loses the entire un-pushed window — Table 3's loss window, "
             "observed.",
        checks={
            "high durability: every acked object survives":
                lambda rows, f: rows[0][2] == rows[0][1],
            "low durability: no object survives":
                lambda rows, f: rows[1][2] == 0,
            "low durability: the whole window is lost":
                lambda rows, f: rows[1][3] == rows[1][1],
        },
    ),
    "fig14": Figure(
        output="fig14_throttle",
        title="Figure 14 — write latency under background replication",
        headers=("configuration", "avg write (ms)", "p95 write (ms)",
                 "objects replicated"),
        experiment=_fig14,
        full=dict(records=400, clients=4, duration=60.0, warmup=5.0,
                  trigger="512K"),
        smoke=dict(duration=20.0),
        note="Paper: uncapped replication inflates client latency ~50%; "
             "the 40 KB/s cap restores near-baseline latency but "
             "replicates more slowly (lower durability).  Cap levels "
             "swept as an ablation.",
        checks={
            "uncapped replication > 1.25x baseline latency":
                lambda rows, f: rows[1][1] > 1.25 * rows[0][1],
            "the 40KB/s cap beats uncapped": lambda rows, f: rows[2][1] < rows[1][1],
            "the 40KB/s cap within 1.2x baseline":
                lambda rows, f: rows[2][1] < 1.20 * rows[0][1],
            # the durability price
            "capped replicates no more than uncapped":
                lambda rows, f: rows[2][3] <= rows[1][3],
        },
    ),
    "fig15": Figure(
        output="fig15_writeback",
        title="Figure 15 — write latency vs time interval to persist",
        headers=("interval (s)", "avg write (ms)", "p95 write (ms)",
                 "worst-case loss"),
        experiment=_fig15,
        full=dict(records=300, clients=2, duration=15.0, warmup=5.0,
                  intervals=(0, 10, 20, 40, 60, 80, 100)),
        smoke=dict(duration=3.0, warmup=1.0, intervals=(0, 10, 100)),
        note="Paper: t=0 behaves as a write-through cache (client pays "
             "the EBS write); latency falls as t grows, durability falls "
             "with it.",
        checks={
            "write-through > 3x write-back latency":
                lambda rows, f: rows[0][1] > 3 * rows[-1][1],
            "every interval >= 10 s below half of t=0":
                lambda rows, f: all(row[1] < rows[0][1] / 2 for row in rows[1:]),
        },
    ),
    "fig16": Figure(
        output="fig16_grow",
        title="Figure 16 — tier capacity, space consumed, and latency over time",
        headers=("minute", "space used (KB)", "capacity (KB)",
                 "avg latency (ms)"),
        experiment=_fig16,
        full=dict(
            minutes=14, tier_size="2M", object_bytes=4096,
            # ~1.6 inserts/s crosses the 75% threshold around t ≈ 6 min,
            # matching the paper's timeline.
            think_time=0.45, read_fraction=0.2, clients=2,
        ),
        smoke=dict(minutes=9),
        note="Paper: the tier grows ~1 minute after hitting 75% fill "
             "(provisioning delay); latency spikes around the grow due "
             "to cache misses, then settles.",
        checks={
            # The sustained write-heavy load may cross the 75% threshold
            # again later ("add as much storage as its current size EVERY
            # TIME the tier is 75% full"), so at least one doubling.
            "capacity at least doubles":
                lambda rows, f: max(row[2] for row in rows) >= 2 * rows[0][2],
            "the grow lands between minutes 3 and 12":
                lambda rows, f: 3 <= _grow_minute(rows) <= 12,
            "each grow doubles the then-current capacity":
                lambda rows, f: all(
                    big == 2 * small
                    for small, big in zip(
                        sorted({row[2] for row in rows}),
                        sorted({row[2] for row in rows})[1:],
                    )
                ),
            "space used rises over the run": lambda rows, f: rows[-1][1] > rows[1][1],
        },
    ),
    "fig17": Figure(
        output="fig17_failure",
        title="Figure 17 — ops/sec over the 10-minute outage window",
        headers=("minute", "ops/sec"),
        experiment=lambda t: _outage(t, resilient=False),
        full=dict(
            records=200, clients=4,
            window=600.0,       # the 10-minute window
            failure_at=245.0,   # EBS dies at t ≈ 4 min
            probe_interval=120.0, think_time=0.0,
        ),
        smoke=dict(clients=1),
        note=lambda f, p: (
            "Paper: throughput → 0 between t≈4 min (EBS failure) and "
            "t≈6 min (monitor detects, reconfigures to Ephemeral+S3), "
            "restored by t≈7 min.  "
            f"Repair happened at minute {f.get('repaired_minute', 0):.1f}; "
            f"{f['errors']} writes failed during the outage."
        ),
        checks={
            "healthy > 50 ops/s at minute 1": lambda rows, f: _rate(rows, 1) > 50,
            "outage < 0.2x healthy at minutes 4-5":
                lambda rows, f: min(_rate(rows, 4), _rate(rows, 5))
                < 0.2 * _rate(rows, 1),
            "restored > 0.7x healthy at minute 8":
                lambda rows, f: _rate(rows, 8) > 0.7 * _rate(rows, 1),
            "writes fail during the outage": lambda rows, f: f["errors"] > 0,
            "repaired between minutes 4 and 7":
                lambda rows, f: 4.0 <= f["repaired_minute"] <= 7.0,
        },
    ),
    "fig17_resilient": Figure(
        output="fig17_failure_resilient",
        title="Figure 17 (with resilience layer) — ops/sec over the outage window",
        headers=("minute", "ops/sec"),
        experiment=lambda t: _outage(t, resilient=True),
        full=dict(
            records=200, clients=4, window=600.0, failure_at=245.0,
            probe_interval=120.0, think_time=0.02,
        ),
        smoke=dict(clients=2),
        note=lambda f, p: (
            "Same seed and failure schedule as the baseline Figure 17 run; "
            "the resilience layer rides through the outage instead of "
            "waiting for the monitor.  "
            f"{f['degraded_writes']} writes degraded to Memcached, "
            f"{f['pending_repairs']} repairs still queued for EBS "
            f"(it never recovers), tier2 breaker {f['breaker']!r}, "
            f"{f['errors']} client-visible errors."
        ),
        # The breaker opens after three timed-out writes, later writes
        # fail fast and degrade to Memcached (queueing repairs), and the
        # monitor's canaries keep succeeding, so reconfiguration never
        # fires.
        checks={
            "healthy > 50 ops/s at minute 1": lambda rows, f: _rate(rows, 1) > 50,
            # where the baseline drops to ~0 for two minutes
            "outage floor > 0.5x healthy at minutes 5-7":
                lambda rows, f: min(_rate(rows, m) for m in (5, 6, 7))
                > 0.5 * _rate(rows, 1),
            "no client sees the outage": lambda rows, f: f["errors"] == 0,
            "the monitor never reconfigures":
                lambda rows, f: f["repaired_at"] is None,
            "writes degrade to Memcached": lambda rows, f: f["degraded_writes"] > 0,
            "repairs stay queued for the dead EBS":
                lambda rows, f: f["pending_repairs"] > 0,
            "the tier2 breaker is open": lambda rows, f: f["breaker"] == "open",
        },
    ),
    "fig18": Figure(
        output="fig18_overhead",
        title="Figure 18 — control-layer overhead (with vs without)",
        headers=("events/sec", "op", "without CL (ms)", "with CL (ms)",
                 "overhead %"),
        experiment=_fig18,
        full=dict(records=500, duration=20.0, warmup=5.0,
                  client_counts=(1, 2, 4, 8), record_bytes=4096),
        smoke=dict(duration=8.0, warmup=2.0, client_counts=(1, 8)),
        note="Paper: overhead under 2% at every event rate.",
        checks={
            "overhead < 8% at every rate":
                lambda rows, f: all(row[4] < 8.0 for row in rows),
            "write overhead < 5% at every rate":
                lambda rows, f: all(row[4] < 5.0 for row in rows if row[1] == "write"),
        },
    ),
    "batch_scaling": Figure(
        output="batch_scaling",
        title="Batch scaling: High Durability instance, YCSB 50/50, 4 KB records",
        headers=("depth", "ops/s", "speedup", "get ms", "put ms", "errors"),
        experiment=_batch_scaling,
        full=dict(seed=11, records=200, operations=400, depths=(1, 2, 4, 8)),
        smoke=dict(operations=200, depths=(1, 8)),
        note="depth 1 is the serial closed loop; deeper pipelines overlap\n"
             "independent items across each tier's channels (max-plus cost),\n"
             "flattening as the EBS volume's two channels saturate.",
        checks={
            "throughput rises with every depth step":
                lambda rows, f: all(a[1] < b[1] for a, b in zip(rows, rows[1:])),
        },
    ),
    "heat_telemetry": Figure(
        output="heat_telemetry",
        title="Heat telemetry: shifting-hot-set zipfian, Space-Saving hot set",
        headers=("phase", "distinct", "true hot (suffixes)", "found", "recall"),
        experiment=_heat_telemetry,
        full=dict(
            seed=2014,
            records=400,        # keyspace — an order of magnitude over top_k
            phases=3, ops_per_phase=800,
            shift=131,          # rank rotation per phase
            theta=1.2,          # Figure 12's steeper skew
            hot_true=5,         # the per-phase ground-truth hot set size
            top_k=32,           # Space-Saving sketch capacity
            hot_min=4,          # guaranteed count before a key counts as hot
            max_objects=128,    # per-object table cap (< keyspace: LRU)
            record_size=512,
        ),
        note=_heat_note,
        checks={
            "mean recall >= 90%":
                lambda rows, f: f["mean_recall"] >= RECALL_GATE,
            "sketch within top-k entries":
                lambda rows, f: f["sketch_entries"] <= f["top_k"],
            "per-object table within its cap":
                lambda rows, f: f["tracked_objects"] <= f["max_objects"],
            "virtual overhead < 5%":
                lambda rows, f: f["virtual_overhead"] < OVERHEAD_GATE,
            # the observer-effect rule: enabling the tracker costs the
            # simulated timeline nothing
            "virtual overhead is zero":
                lambda rows, f: f["virtual_seconds_enabled"]
                == f["virtual_seconds_disabled"],
        },
    ),
    "adaptive_placement": Figure(
        output="adaptive_placement",
        title="Adaptive placement vs static watermark LRU "
              "(shifting zipfian + scans)",
        headers=("policy", "hit", "p50 ms", "p95 ms", "p99 ms", "ebs reads",
                 "month cost", "moves"),
        experiment=_adaptive_placement,
        full=dict(
            seed=4117,
            records=640,          # whole keyspace (scans read all of it)
            record_size=4096,     # the paper's 4 KB records
            active=80,            # per-phase hot-set size
            theta=1.1,            # skew inside the active set
            phases=3, ops_per_phase=2500,
            warmup_ops=1500,      # unmeasured ramp on phase 0's hot set
            shift=16,             # keys entering/leaving the hot set per phase
            cache_records=88,     # the active set plus thin slack
            scan_fraction=0.05,   # uniform reads over the whole keyspace
            write_fraction=0.08,  # zipfian updates of active keys
            think_time=0.002,     # virtual seconds per op
            drain_every=40,       # ops between background-timer drains
        ),
        note=_placement_note,
        checks={
            "adaptive p95 no worse than the best static policy":
                lambda rows, f: _p95_ok(f),
            "adaptive cost no higher than the best static policy":
                lambda rows, f: _cost_ok(f),
            "adaptive strictly better on p95 or cost":
                lambda rows, f: f["adaptive_p95_ms"] < f["best_static_p95_ms"]
                or f["adaptive_total_cost"] < f["best_static_total_cost"],
        },
    ),
    "chaos": Figure(
        output="chaos_matrix",
        title="Chaos matrix — availability / p99 / MTTR, baseline vs resilient",
        headers=("scenario", "deployment", "seed", "mode", "avail %", "p99 ms",
                 "mttr s", "corrupt", "retries", "degraded", "replayed"),
        experiment=_chaos,
        full=dict(
            duration=240.0,
            cells=tuple(
                (scenario, deployment, 2014, resilient)
                for scenario in ("transient-errors", "latency-spike",
                                 "flapping", "bitrot", "shard-loss")
                for deployment in CHAOS_DEPLOYMENTS
                for resilient in (False, True)
            ),
        ),
        # three scenarios x three seeds on the resilient write-through
        # instance, plus the two baselines the headline claims compare to
        smoke=dict(
            duration=150.0,
            cells=tuple(
                (scenario, "write-through", seed, True)
                for seed in (2014, 7, 1717)
                for scenario in ("transient-errors", "flapping", "bitrot")
            ) + (
                ("transient-errors", "write-through", 2014, False),
                ("bitrot", "write-through", 2014, False),
            ),
        ),
        note="Same seed drives each baseline/resilient pair; the only "
             "difference is the resilience layer.  'corrupt' counts GETs "
             "that returned bytes the reference ledger does not allow: "
             "neither the key's last acked write nor an attempt made since.",
        checks={
            # headline: 20% EBS transient errors for 2 virtual minutes
            "baseline transient-errors: PUT availability < 95%":
                lambda rows, f: _headline(f, "transient-errors", "baseline")
                ["availability"]["put"] < 0.95,
            "resilient transient-errors: GET, PUT and overall >= 99%":
                lambda rows, f: min(
                    _headline(f, "transient-errors", "resilient")
                    ["availability"][op] for op in ("get", "put", "overall")
                ) >= 0.99,
            "resilient transient-errors: retries, redirects, replays them all":
                lambda rows, f: _replays_every_redirect(
                    _headline(f, "transient-errors", "resilient")
                ),
            "baseline bitrot serves corrupt bytes":
                lambda rows, f: _headline(f, "bitrot", "baseline")
                ["corrupt_reads"] > 0,
            "resilient bitrot: no corrupt read, reads repaired":
                lambda rows, f: _headline(f, "bitrot", "resilient")
                ["corrupt_reads"] == 0
                and _headline(f, "bitrot", "resilient")["read_repairs"] > 0,
            "every resilient cell: reads checked, no ledger violation":
                lambda rows, f: all(
                    c["checked"] > 0 and c["violations"] == 0
                    and c["corrupt_reads"] == 0
                    for c in _cells(f, mode="resilient")
                ),
            # cached-s3's baseline is out until ROADMAP defect (a) is
            # fixed; tests/regressions/stale-overwrite-cached-s3.json
            # pins it
            "write-through baselines: only injected rot is a violation":
                lambda rows, f: all(
                    c["violations"] == 0
                    for c in _cells(f, deployment="write-through", mode="baseline")
                    if c["scenario"] != "bitrot"
                ),
        },
    ),
    "crash_sweep": Figure(
        output="crash_sweep",
        title="Crash sweep — every boundary of the scripted workload, "
              "crashed and recovered",
        headers=("deployment", "boundaries", "swept", "recovered clean",
                 "durable digests", "records replayed"),
        experiment=_crash_sweep,
        full=dict(seed=2014, deployments=CRASH_DEPLOYMENTS),
        note="After each crash a successor reopens over the surviving "
             "metadata store and must be fsck-clean, sit on a durable "
             "state the reference run passed through, and (where the "
             "policy acks after a durable write) hold every acked key.",
        checks={
            "every deployment recovers clean":
                lambda rows, f: all(s["clean"] for s in f["sweeps"]),
            # a truncated sweep must not pass as clean
            "every visited boundary swept and recovered":
                lambda rows, f: all(
                    s["ok"] == s["crash_points"] for s in f["sweeps"]
                ),
        },
    ),
    "shard_failover": Figure(
        output="shard_failover",
        title="Shard failover: kill 1 of 4 replicated shards mid-workload",
        headers=("metric", "value"),
        experiment=_shard_failover,
        # the presets' own defaults at full scale
        full=dict(failover={}, migration={}),
        smoke=dict(
            failover=dict(records=24, duration=150.0, clients=3,
                          outage_at=30.0, outage=60.0, flap_duration=30.0),
            migration=dict(records=8),
        ),
        note="replication_factor=3 write_quorum=2; the victim takes a hard\n"
             "outage then flaps back; hints drain on recovery and\n"
             "anti-entropy converges the replica groups.  The migration\n"
             "sweep crashes add_shard at every journaled boundary.",
        checks={
            **{
                name: lambda rows, f, check=check: check(f["failover"])
                for name, check in FAILOVER_CHECKS.items()
            },
            "the outage parked hints":
                lambda rows, f: f["failover"]["hints"]["recorded"] > 0,
            "migration sweep recovers clean":
                lambda rows, f: f["migration"]["clean"] is True,
            # the membership pair once each, the three per-move points
            # at their first, middle and last visit
            "migration sweep armed 11 boundaries":
                lambda rows, f: f["migration"]["swept"] == 11,
        },
    ),
    "backup_lifecycle": Figure(
        output="backup_lifecycle",
        title="Backup lifecycle: snapshot bytes (full vs incremental chain)",
        headers=("id", "kind", "objects", "bytes", "vs full"),
        experiment=_backup_lifecycle,
        full=dict(records=120, waves=4),
        note=lambda f, p: (
            "each wave mutates ~15% of the set; incrementals should cost\n"
            "roughly the changed fraction of a full archive.  PITR to seq "
            f"{f['pitr']['target_seq']} replayed {f['pitr']['replayed']} "
            f"WAL records; digest match {f['pitr']['digest_match']}, "
            f"scheduled verification ok {f['verification']['ok']}."
        ),
        checks={
            "PITR lands on the target's durable digest":
                lambda rows, f: f["pitr"]["digest_match"] is True,
            "PITR replays WAL records": lambda rows, f: f["pitr"]["replayed"] > 0,
            "the restored instance is fsck-clean":
                lambda rows, f: f["pitr"]["fsck_clean"] is True,
            "the scheduled restore drill passes":
                lambda rows, f: f["verification"]["ok"] is True,
            "an incremental costs < 0.7x a full archive":
                lambda rows, f: f["incremental_vs_full_bytes"] < 0.7,
        },
    ),
    "ablation_eviction": Figure(
        output="ablation_eviction",
        title="Ablation — LRU vs MRU eviction under zipfian reads",
        headers=("policy", "avg read (ms)", "p95 read (ms)", "reads/sec"),
        experiment=_ablation_eviction,
        # unsaturated: queueing would wash out the policy difference
        full=dict(records=1_000, cache_share=0.25, clients=4, duration=30.0,
                  warmup=8.0, think_time=0.05),
        smoke=dict(records=400, duration=10.0, warmup=3.0),
        note="LRU keeps the zipfian head cached; MRU evicts it first.",
        checks={
            "LRU reads faster than MRU": lambda rows, f: rows[0][1] < rows[1][1],
        },
    ),
    "ablation_inclusive": Figure(
        output="ablation_inclusive",
        title="Ablation — exclusive vs inclusive tiering (TI:2 shape)",
        headers=("placement", "distribution", "avg read (ms)",
                 "objects durable"),
        experiment=_ablation_inclusive,
        full=dict(records=2_000, record_bytes=4096, mem_share=0.60,
                  ebs_share=0.20, clients=14, duration=25.0, warmup=8.0),
        smoke=dict(records=300, duration=2.0, warmup=1.0),
        note="Exclusive keeps hot objects only in Memcached (cheap reads, "
             "volatile); inclusive keeps every object in S3 as well "
             "(everything durable, cold reads slower).",
        checks={
            "inclusive keeps every object durable":
                lambda rows, f: min(r[3] for r in rows[2:]) >= f["records"],
            "exclusive leaves objects volatile":
                lambda rows, f: max(r[3] for r in rows[:2]) < f["records"],
        },
    ),
    "ablation_background_events": Figure(
        output="ablation_background_events",
        title="Ablation — foreground vs background threshold responses",
        headers=("configuration", "avg PUT (ms)", "p95 PUT (ms)",
                 "max PUT (ms)"),
        experiment=_ablation_background_events,
        # short on purpose: the point is the one threshold firing ~0.3 s
        # in, and the run must stay within the 32 MB tier's capacity
        full=dict(clients=2, duration=2.5),
        # past the firing, the backlog of background copies costs wall
        # time (about a minute at 2.5 s) and shows nothing new
        smoke=dict(duration=1.0),
        note="Foreground: the unlucky client that crosses the threshold "
             "pays for the whole S3 backup inline (huge max latency). "
             "Background: the backup runs off the client path.",
        checks={
            "foreground max PUT > 5x background":
                lambda rows, f: rows[0][3] > 5 * rows[1][3],
        },
    ),
}


__all__ = ["FIGURES", "Figure", "Trial", "run_figure"]
