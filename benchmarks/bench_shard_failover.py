"""Shard failover under replication: kill 1 of 4 shards mid-workload.

The paper's flexibility story assumes an instance can be rebuilt from
its policy; the cluster layer extends that to *losing a member*: with a
replication factor of 3 and a write quorum of 2, taking a whole shard
down (hard outage, then a flapping recovery) must not dent availability
below 99.9 % and must lose **zero acknowledged writes**.  Misses park
as hinted handoffs; recovery drains the hints and the Merkle
anti-entropy sweep converges the replica groups back to zero
divergence, after which cluster fsck comes back clean.

A second leg crashes the migrator at every journaled boundary of an
``add_shard`` and proves :meth:`recover` makes the membership change
exactly-once (see ``docs/CLUSTER.md``).

Standalone use::

    python benchmarks/bench_shard_failover.py           # full table
    python benchmarks/bench_shard_failover.py --smoke   # CI gate: a
        deterministic JSON summary (byte-identical across same-seed runs)
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.sim import run_failover, run_migration_crash
from repro.bench.report import format_table

SMOKE_KWARGS = dict(
    records=24, duration=150.0, clients=3,
    outage_at=30.0, outage=60.0, flap_duration=30.0,
)

AVAILABILITY_FLOOR = 0.999


def _gate(report, crash_report) -> list:
    """The acceptance invariants; returns the list of violations."""
    failures = []
    if report["availability"]["overall"] < AVAILABILITY_FLOOR:
        failures.append(
            f"availability {report['availability']['overall']:.4f} "
            f"< {AVAILABILITY_FLOOR}"
        )
    if report["acked_write_loss"]:
        failures.append(
            f"{report['acked_write_loss']} acked writes lost: "
            f"{report['lost_keys']}"
        )
    if report["hints"]["pending"]:
        failures.append(f"{report['hints']['pending']} hints never drained")
    if report["anti_entropy"]["final_divergent"]:
        failures.append(
            f"{report['anti_entropy']['final_divergent']} replica groups "
            "still divergent after anti-entropy"
        )
    if not report["fsck"]["clean"]:
        failures.append(f"cluster fsck found {report['fsck']['findings']}")
    if not crash_report["clean"]:
        bad = [e for e in crash_report["swept"] if not e["ok"]]
        failures.append(f"migration crash sweep: {len(bad)} dirty recoveries")
    return failures


def _rows(report):
    hints = report["hints"]
    ae = report["anti_entropy"]
    return [
        ["availability (overall)", report["availability"]["overall"]],
        ["operations", report["workload"]["operations"]],
        ["acked writes / lost", f"{report['acked_writes']} / "
                                f"{report['acked_write_loss']}"],
        ["hints recorded / replayed / pending",
         f"{hints['recorded']} / {hints['replayed']} / {hints['pending']}"],
        ["anti-entropy runs / repairs / divergent",
         f"{ae['runs']} / {ae['repairs']} / {ae['final_divergent']}"],
        ["detector transitions", len(report["detector_transitions"])],
        ["fsck clean", report["fsck"]["clean"]],
    ]


def test_shard_failover(benchmark, emit):
    out = {}

    def experiment():
        out["report"] = run_failover(**SMOKE_KWARGS)
        out["crash"] = run_migration_crash(records=8)

    benchmark.pedantic(experiment, rounds=1, iterations=1)
    report = out["report"]
    emit("shard_failover", format_table(
        "Shard failover: kill 1 of 4 replicated shards mid-workload",
        ["metric", "value"],
        _rows(report),
        note=(
            "replication_factor=3 write_quorum=2; the victim takes a hard\n"
            "outage then flaps back; hints drain on recovery and\n"
            "anti-entropy converges the replica groups."
        ),
    ))
    failures = _gate(report, out["crash"])
    assert not failures, "; ".join(failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Replicated shard failover and migration-crash sweep."
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="print the deterministic JSON summary and gate on the "
             "failover invariants (used by CI, byte-diffed across runs)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        report = run_failover(**SMOKE_KWARGS)
        crash_report = run_migration_crash(records=8)
        print(json.dumps(
            {"failover": report, "migration_crash": crash_report},
            indent=2, sort_keys=True,
        ))
        failures = _gate(report, crash_report)
        if failures:
            print("FAIL: " + "; ".join(failures), file=sys.stderr)
            return 1
        return 0
    report = run_failover()
    crash_report = run_migration_crash()
    print(format_table(
        "Shard failover: kill 1 of 4 replicated shards mid-workload",
        ["metric", "value"],
        _rows(report),
        note=(
            f"seed {report['seed']}, victim {report['victim']}, "
            f"{report['workload']['duration']:.0f}s window"
        ),
    ))
    swept = crash_report["swept"]
    print(f"migration crash sweep: {len(swept)} armed boundaries over "
          f"{crash_report['crash_points_visited']} visits, "
          f"{'all clean' if crash_report['clean'] else 'DIRTY'}")
    failures = _gate(report, crash_report)
    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
