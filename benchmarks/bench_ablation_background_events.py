"""Ablation (§3 / DESIGN.md): foreground vs background threshold events.

The paper's §3 distinguishes foreground threshold events (evaluated —
and their responses executed — synchronously with the triggering
client request) from background ones (asynchronous).  This ablation
attaches an expensive response (copy everything to S3) to a fill
threshold, in both flavours, and measures what lands on client PUT
latency.
"""

from __future__ import annotations

from repro.bench.report import format_table, ms
from repro.bench.runner import run_closed_loop
from repro.core.conditions import AttrRef, Comparison, Literal
from repro.core.events import ActionEvent, ThresholdEvent
from repro.core.policy import Policy, Rule
from repro.core.responses import Copy, Store
from repro.core.selectors import InsertObject, ObjectsWhere
from repro.core.instance import TieraInstance
from repro.core.server import TieraServer
from repro.simcloud.cluster import Cluster
from repro.simcloud.resources import RequestContext
from repro.tiers.registry import TierRegistry
from repro.workloads.ycsb import insert_stream

CLIENTS = 2
# Short on purpose: the point is the one threshold firing ~0.3 s in —
# and the run must stay within the 32 MB tier's insert capacity.
DURATION = 2.5
THRESHOLD = 0.10


def _measure(background, seed):
    cluster = Cluster(seed=seed)
    registry = TierRegistry(cluster)
    tiers = [
        registry.create("Memcached", tier_name="tier1", size=32 * 1024 * 1024),
        registry.create("S3", tier_name="tier2", size=None),
    ]
    everything_in_tier1 = ObjectsWhere(
        Comparison("==", AttrRef(("object", "location")), Literal("tier1"))
    )
    instance = TieraInstance(
        name="ablation",
        tiers=tiers,
        policy=Policy(
            [
                Rule(
                    ActionEvent("insert"),
                    [Store(InsertObject(), "tier1")],
                    name="place",
                ),
                Rule(
                    ThresholdEvent(
                        Comparison(
                            ">=", AttrRef(("tier1", "filled")), Literal(THRESHOLD)
                        ),
                    ),
                    [Copy(everything_in_tier1, "tier2")],
                    background=background,
                    name="backup",
                ),
            ]
        ),
        clock=cluster.clock,
    )
    server = TieraServer(instance)
    workload = insert_stream(server, seed=3)
    # Record every operation's latency ourselves: the one client that
    # trips the foreground threshold can take far longer than the run
    # window (that spike IS the measurement), which the closed-loop
    # runner's completion-window accounting would otherwise drop.
    latencies = []

    def op(client, ctx):
        start = ctx.time
        label = workload(client, ctx)
        latencies.append(ctx.time - start)
        return label

    run_closed_loop(cluster.clock, clients=CLIENTS, duration=DURATION, op_fn=op)
    return latencies


def run_ablation():
    rows = []
    for name, background, seed in (
        ("foreground threshold", False, 900),
        ("background threshold", True, 901),
    ):
        latencies = sorted(_measure(background, seed))
        mean = sum(latencies) / len(latencies)
        p95 = latencies[int(0.95 * (len(latencies) - 1))]
        rows.append(
            [
                name,
                round(ms(mean), 2),
                round(ms(p95), 2),
                round(ms(latencies[-1]), 1),
            ]
        )
    return rows


def test_ablation_background_events(benchmark, emit):
    table = {}

    def experiment():
        table["rows"] = run_ablation()

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    text = format_table(
        "Ablation — foreground vs background threshold responses",
        ["configuration", "avg PUT (ms)", "p95 PUT (ms)", "max PUT (ms)"],
        table["rows"],
        note=(
            "Foreground: the unlucky client that crosses the threshold "
            "pays for the whole S3 backup inline (huge max latency). "
            "Background: the backup runs off the client path."
        ),
    )
    emit("ablation_background_events", text)
    foreground, background = table["rows"]
    assert foreground[3] > 5 * background[3]  # the inline-backup spike
