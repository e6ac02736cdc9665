"""Cross-module integration: small versions of the paper's experiments."""

import pytest

from repro.bench.deployments import (
    mysql_memory_engine,
    mysql_on_ebs,
    mysql_on_tiera,
)
from repro.bench.runner import run_closed_loop
from repro.bench.sim import build
from repro.core import templates
from repro.core.server import TieraServer
from repro.fs.dedupfs import DedupFileSystem
from repro.monitor import StorageMonitor
from repro.workloads.fio import FioReader
from repro.workloads.sysbench import SysbenchOltp, load_table
from repro.workloads.ycsb import write_only


class TestMySQLOnTiera:
    """A miniature Figure 7: Tiera must beat bare EBS on hot reads."""

    def _tps(self, deployment, rows=2000, read_only=True):
        load_table(deployment.db, rows, clock=deployment.clock)
        workload = SysbenchOltp(
            deployment.db, rows, hot_fraction=0.3, read_only=read_only
        )
        result = run_closed_loop(
            deployment.clock, clients=4, duration=8.0,
            op_fn=workload, warmup=2.0,
        )
        return result.throughput

    def test_tiera_beats_ebs_when_hot_set_exceeds_ram(self):
        # The paper's regime: the working set no longer fits the
        # instance's caches, so EBS pays device reads and Tiera does not.
        ebs = self._tps(
            mysql_on_ebs(os_cache="512K", pool_pages=32), rows=10000
        )
        tiera = self._tps(
            mysql_on_tiera(
                build("memcached-replicated", 2014, mem="64M"), pool_pages=32
            ),
            rows=10000,
        )
        assert tiera > ebs * 1.2

    def test_ebs_fine_when_everything_fits_in_ram(self):
        # The paper's caveat, inverted: with a tiny database the OS
        # buffer cache serves everything and bare EBS keeps up.
        ebs = self._tps(mysql_on_ebs(os_cache="4M", pool_pages=32), rows=1000)
        assert ebs > 50

    def test_memory_engine_is_pathological(self):
        dep = mysql_memory_engine()
        tps = self._tps(dep, rows=500)
        assert tps < 1.0  # the paper measured ~0.15 TPS


class TestDedupPipeline:
    """A miniature Figure 12: more duplicates → fewer S3 requests."""

    def _s3_puts(self, registry_seed, duplicate_every):
        from repro.simcloud.cluster import Cluster
        from repro.tiers.registry import TierRegistry

        registry = TierRegistry(Cluster(seed=registry_seed))
        instance = templates.dedup_instance(registry, mem="64K")
        fs = DedupFileSystem(TieraServer(instance))
        with fs.open("/data", "w") as handle:
            for i in range(64):
                fill = i % duplicate_every
                handle.write(bytes([fill % 256]) * 4096)
        return instance.tiers.get("tier2").service.put_requests

    def test_duplicates_reduce_s3_requests(self):
        many_dupes = self._s3_puts(1, duplicate_every=4)
        few_dupes = self._s3_puts(2, duplicate_every=32)
        assert many_dupes < few_dupes


class TestFailureRecovery:
    """A miniature Figure 17 with throughput observation."""

    def test_throughput_recovers_after_reconfiguration(self, registry, cluster):
        instance = templates.write_through_instance(registry, mem="16M", ebs="16M")
        server = TieraServer(instance)

        def repair():
            tiers, rules = templates.ephemeral_s3_reconfiguration(
                registry, backup_interval=60
            )
            instance.reconfigure(
                add_tiers=tiers,
                remove_tiers=["tier1", "tier2"],
                replace_policy=rules,
            )

        StorageMonitor(server, repair, probe_interval=30).start()
        workload = write_only(server, records=50)
        workload.load()
        cluster.clock.run_until(10)
        # Fail EBS at t=115 — between monitor probes, so detection waits
        # for the next canary write and the outage window is visible.
        cluster.clock.schedule(
            105, lambda: instance.tiers.get("tier2").service.fail()
        )
        # One client, run to t=190: a minute of repaired service is
        # enough to see the recovery, and tier-1 pays for every op.
        result = run_closed_loop(
            cluster.clock, clients=1, duration=180.0,
            op_fn=workload, series_bucket=30.0,
        )
        rates = dict(result.throughput_series.rate())
        assert result.errors > 0  # the outage was visible
        # Throughput before the failure and near the end (post-repair)
        # are both healthy; the failure window is depressed.
        assert rates[0.0] > 0
        assert rates[max(rates)] > 0.5 * rates[0.0]


class TestFioOverTiera:
    def test_zipfian_read_latency_reasonable(self, registry, cluster):
        instance = templates.dedup_instance(registry, mem="256K")
        fs = DedupFileSystem(TieraServer(instance))
        with fs.open("/blob", "w") as handle:
            for i in range(128):
                handle.write(bytes([i]) * 4096)
        reader = FioReader(fs, "/blob", theta=1.2)
        result = run_closed_loop(
            cluster.clock, clients=4, duration=5.0, op_fn=reader
        )
        assert result.operations > 100
        assert result.latencies.mean() < 0.2
