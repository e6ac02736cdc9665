#!/usr/bin/env python
"""The §4.2.3 failure story: an EBS outage survived by dynamic
reconfiguration, narrated minute by minute.

Run:  python examples/failure_recovery.py
"""

from repro.bench.runner import run_closed_loop
from repro.core.server import TieraServer
from repro.core.templates import (
    ephemeral_s3_reconfiguration,
    write_through_instance,
)
from repro.monitor import StorageMonitor
from repro.simcloud.cluster import Cluster
from repro.simcloud.resources import RequestContext
from repro.tiers.registry import TierRegistry
from repro.workloads.ycsb import write_only


def main() -> None:
    cluster = Cluster(seed=17)
    registry = TierRegistry(cluster)
    instance = write_through_instance(registry, mem="64M", ebs="64M")
    server = TieraServer(instance)
    print(f"running: {instance}")

    def repair():
        minute = cluster.clock.now() / 60.0
        print(f"  [{minute:4.1f} min] monitor: EBS failed — reconfiguring "
              "to EphemeralStorage + S3")
        tiers, rules = ephemeral_s3_reconfiguration(registry, backup_interval=120)
        instance.reconfigure(
            add_tiers=tiers,
            remove_tiers=["tier1", "tier2"],
            replace_policy=rules,
        )

    StorageMonitor(server, repair, probe_interval=120).start()

    workload = write_only(server, records=200)
    ctx = RequestContext(cluster.clock)
    workload.load(ctx=ctx)
    cluster.clock.run_until(ctx.time)

    # The EBS service starts timing out at t = 4 minutes.
    cluster.clock.schedule(
        245.0, lambda: instance.tiers.get("tier2").service.fail()
    )
    print("EBS outage scheduled for t = 4.1 min; watching throughput:")

    # One writer pausing 10 ms between requests: the ten-minute shape
    # (steady, outage, faster after the repair) at a sixth of the ops.
    result = run_closed_loop(
        cluster.clock, clients=1, duration=600.0, op_fn=workload,
        think_time=0.01, series_bucket=60.0,
    )
    rates = dict(result.throughput_series.rate())
    for minute in range(10):
        rate = rates.get(minute * 60.0, 0.0)
        bar = "#" * int(rate / 2)
        print(f"  minute {minute}: {rate:7.1f} ops/s  {bar}")
    print(f"failed writes during the outage: {result.errors}")
    print(f"tiers now: {instance.tiers.names()}")


if __name__ == "__main__":
    main()
