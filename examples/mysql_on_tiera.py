#!/usr/bin/env python
"""The §4.1.1 case study in miniature: unmodified minidb ("MySQL") on
three deployments, under a sysbench-style OLTP workload.

Run:  python examples/mysql_on_tiera.py
"""

from repro.bench.deployments import mysql_on_ebs, mysql_on_tiera
from repro.bench.report import format_table
from repro.bench.runner import run_closed_loop
from repro.bench.sim import build
from repro.workloads.sysbench import SysbenchOltp, load_table

ROWS = 50_000
HOT = 0.20          # 20 % of rows get 80 % of accesses
CLIENTS = 8
DURATION = 10.0


def measure(deployment, read_only):
    load_table(deployment.db, ROWS, clock=deployment.clock)
    workload = SysbenchOltp(
        deployment.db, ROWS, hot_fraction=HOT, read_only=read_only
    )
    result = run_closed_loop(
        deployment.clock, clients=CLIENTS, duration=DURATION,
        op_fn=workload, warmup=2.0,
    )
    return result


def main() -> None:
    rows = []
    for name, builder in (
        ("MySQL On EBS", lambda: mysql_on_ebs(os_cache="8M")),
        ("Tiera MemcachedReplicated", lambda: mysql_on_tiera(
            build("memcached-replicated", 2014, mem="256M"))),
        ("Tiera MemcachedEBS", lambda: mysql_on_tiera(
            build("memcached-ebs", 2014, mem="256M"))),
    ):
        for read_only, label in ((True, "read-only"), (False, "read-write")):
            deployment = builder()
            result = measure(deployment, read_only)
            rows.append(
                [
                    name,
                    label,
                    round(result.throughput, 1),
                    round(result.latencies.p95() * 1000, 1),
                    round(deployment.monthly_cost(), 2),
                ]
            )
    print(format_table(
        "minidb ('MySQL') on three deployments — sysbench OLTP, 8 threads",
        ["deployment", "workload", "TPS", "p95 (ms)", "cost $/mo"],
        rows,
        note=(
            "The database is unmodified in all three cases; only the "
            "Tiera instance specification changes (under 15 lines each)."
        ),
    ))


if __name__ == "__main__":
    main()
