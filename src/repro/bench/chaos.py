"""Deterministic chaos-run harness: one scenario, one deployment, one seed.

This is the shared engine behind ``benchmarks/bench_chaos_matrix.py``,
the ``repro chaos`` CLI subcommand, and the determinism tests (and the
CI chaos job, which byte-diffs two same-seed reports).  A run:

1. builds a fresh seeded cluster and a canned deployment,
2. optionally enables the resilience layer,
3. schedules a named chaos scenario on the cluster's fault injector,
4. drives a closed-loop read/write mix over the virtual window,
   tracking per-operation availability, latency, and outage episodes,
5. lets the repair queue drain, and
6. returns a JSON-able report that is byte-identical across runs with
   the same arguments — every number in it derives from the seeded
   RNGs and the virtual clock, never from wall time.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Union

from repro.bench.runner import run_closed_loop
from repro.core.errors import TieraError
from repro.core.server import TieraServer
from repro.core.templates import dedup_instance, write_through_instance
from repro.simcloud.cluster import Cluster
from repro.simcloud.errors import SimCloudError
from repro.simcloud.faults import SCENARIOS, ChaosScenario
from repro.simcloud.resources import RequestContext
from repro.tiers.registry import TierRegistry
from repro.workloads.ycsb import record_payload

#: Canned deployments the matrix sweeps.  Both are paper shapes:
#: write-through is Figure 17's starting instance, cached-s3 is the
#: Figure 12 cache-over-durable-store arrangement.
DEPLOYMENTS = ("write-through", "cached-s3")

#: How long the clock keeps running after the driven window, so
#: auto-clear events fire and repair replays drain.
SETTLE_SECONDS = 60.0


def _build_instance(deployment: str, registry: TierRegistry):
    if deployment == "write-through":
        return write_through_instance(registry, mem="64M", ebs="64M")
    if deployment == "cached-s3":
        return dedup_instance(registry, mem="16M")
    raise ValueError(
        f"unknown deployment {deployment!r}; pick one of {DEPLOYMENTS}"
    )


class _OpStats:
    """Per-operation availability, latency, and outage-episode tracking."""

    def __init__(self):
        self.ok: Dict[str, int] = {}
        self.failed: Dict[str, int] = {}
        self.latencies: Dict[str, List[float]] = {}
        self.errors_by_type: Dict[str, int] = {}
        #: successful GETs whose bytes did not match the expected payload
        #: — silent corruption that reached the client
        self.corrupt_reads = 0
        self._episode_start: Optional[float] = None
        self.episodes: List[float] = []  # time-to-recovery per outage

    def record(
        self,
        op: str,
        at: float,
        ok: bool,
        latency: float,
        error: Optional[BaseException] = None,
    ) -> None:
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

    def availability(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        total_ok = total = 0
        for op in sorted(set(self.ok) | set(self.failed)):
            ok = self.ok.get(op, 0)
            n = ok + self.failed.get(op, 0)
            out[op] = round(ok / n, 6) if n else 1.0
            total_ok += ok
            total += n
        out["overall"] = round(total_ok / total, 6) if total else 1.0
        return out

    def latency_summary(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        for op in sorted(self.latencies):
            data = sorted(self.latencies[op])
            p99 = data[max(0, -(-99 * len(data) // 100) - 1)]
            out[op] = {
                "mean": round(sum(data) / len(data), 6),
                "p99": round(p99, 6),
                "max": round(data[-1], 6),
            }
        return out

    def mttr(self, end: float) -> Dict[str, object]:
        """Outage-episode summary: an episode opens at the first failed
        operation and closes at the next successful one; its length is
        the client-visible time to recovery."""
        episodes = list(self.episodes)
        unresolved = self._episode_start is not None
        if unresolved:
            episodes.append(end - self._episode_start)
        return {
            "episodes": len(episodes),
            "unresolved": unresolved,
            "mean_seconds": (
                round(sum(episodes) / len(episodes), 6) if episodes else 0.0
            ),
            "max_seconds": round(max(episodes), 6) if episodes else 0.0,
            "total_downtime_seconds": round(sum(episodes), 6),
        }


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
    """One deterministic chaos run; returns the JSON-able report."""
    if isinstance(scenario, str):
        if scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {scenario!r}; "
                f"pick one of {sorted(SCENARIOS)}"
            )
        scenario = SCENARIOS[scenario]
    cluster = Cluster(seed=seed)
    registry = TierRegistry(cluster)
    instance = _build_instance(deployment, registry)
    server = TieraServer(instance)
    if resilient:
        instance.enable_resilience()
    # Canned objectives watch the whole run: injected faults burn error
    # budget, and the breaches land in health(), the audit log, and the
    # report's "slo" section — all on the virtual clock, so same-seed
    # runs breach (and recover) identically.
    from repro.obs.slo import default_slos

    obs = instance.obs
    obs.slo.install(default_slos())

    # Load phase: populate before any fault is active.
    load_ctx = RequestContext(cluster.clock)
    versions: Dict[int, int] = {}
    for key in range(records):
        server.put_object(
            f"user{key:06d}", record_payload(key, 0, record_size), ctx=load_ctx
        ).raise_for_error()
    cluster.clock.run_until(load_ctx.time)

    cluster.chaos(scenario, at=scenario_at)
    stats = _OpStats()
    base = cluster.clock.now()
    wl_rng = random.Random((seed << 3) ^ 0x5EED)

    def op_fn(client: int, ctx: RequestContext) -> str:
        key = wl_rng.randrange(records)
        name = f"user{key:06d}"
        op = "get" if wl_rng.random() < read_fraction else "put"
        started = ctx.time
        try:
            if op == "get":
                data = server.get_object(name, ctx=ctx).raise_for_error().value
                expected = record_payload(
                    key, versions.get(key, 0), record_size
                )
                if data != expected:
                    stats.corrupt_reads += 1
            else:
                version = versions.get(key, 0) + 1
                versions[key] = version
                server.put_object(
                    name, record_payload(key, version, record_size), ctx=ctx
                ).raise_for_error()
        except (TieraError, SimCloudError) as exc:
            stats.record(op, ctx.time, False, ctx.time - started, exc)
            return op
        stats.record(op, ctx.time, True, ctx.time - started)
        return op

    result = run_closed_loop(
        cluster.clock,
        clients=clients,
        duration=duration,
        op_fn=op_fn,
        think_time=think_time,
    )

    # Settle: let auto-clear events fire and the repair queue drain.
    if resilient:
        instance.resilience.replay_pending()
    cluster.clock.run_until(cluster.clock.now() + SETTLE_SECONDS)
    if resilient:
        instance.resilience.replay_pending()
        cluster.clock.run_until(cluster.clock.now() + 1.0)

    report: Dict[str, object] = {
        "scenario": scenario.describe(),
        "deployment": deployment,
        "seed": seed,
        "resilient": resilient,
        "duration": duration,
        "clients": clients,
        "records": records,
        "read_fraction": read_fraction,
        "operations": result.operations,
        "corrupt_reads": stats.corrupt_reads,
        "availability": stats.availability(),
        "latency_seconds": stats.latency_summary(),
        "mttr": stats.mttr(end=cluster.clock.now() - base),
        "errors_by_type": dict(sorted(stats.errors_by_type.items())),
        "faults": cluster.faults.report(),
        "state_digest": instance.state_digest(),
        "slo": {
            "summary": obs.slo.summary(cluster.clock.now()),
            "transitions": list(obs.slo.transitions),
            "health_status": server.health()["status"],
        },
    }
    if resilient:
        report["resilience"] = instance.resilience.summary()
    return report


def run_matrix(
    scenarios=(
        "transient-errors", "latency-spike", "flapping", "bitrot",
        "shard-loss",
    ),
    deployments=DEPLOYMENTS,
    seed: int = 2014,
    resilient_modes=(False, True),
    **kwargs,
) -> List[Dict[str, object]]:
    """The full sweep: scenarios × deployments × {baseline, resilient}."""
    out = []
    for scenario in scenarios:
        for deployment in deployments:
            for resilient in resilient_modes:
                out.append(
                    run_chaos(
                        scenario=scenario,
                        deployment=deployment,
                        seed=seed,
                        resilient=resilient,
                        **kwargs,
                    )
                )
    return out
