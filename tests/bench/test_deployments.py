"""The §4.1 deployment builders assemble coherent stacks."""

import pytest

from repro.bench.deployments import (
    mysql_memory_engine,
    mysql_on_ebs,
    mysql_on_tiera,
)
from repro.bench.sim import build
from repro.workloads.sysbench import SysbenchOltp, load_table


def on_tiera(deployment, **args):
    """minidb on a §4.1.1 row of the deployment table."""
    return lambda: mysql_on_tiera(build(deployment, 2014, **args))


class TestBuilders:
    def test_ebs_baseline_has_no_middleware(self):
        dep = mysql_on_ebs()
        assert dep.instance is None
        assert dep.volume is not None
        assert dep.monthly_cost() == pytest.approx(0.80)  # 8 GB EBS

    def test_memcached_replicated_two_zones(self):
        dep = on_tiera("memcached-replicated")()
        zones = {t.service.node.zone.name for t in dep.instance.tiers}
        assert len(zones) == 2

    def test_memcached_s3_cache_is_colocated(self):
        dep = on_tiera("memcached-s3")()
        assert dep.name == "Tiera MemcachedS3"
        cache = dep.instance.tiers.get("tier1")
        assert cache.colocated
        # Co-located cache adds nothing; S3 costs by usage (≈0 empty).
        assert dep.monthly_cost() < 0.01

    def test_memory_engine_has_no_storage(self):
        dep = mysql_memory_engine()
        assert dep.db.memory_engine is not None
        assert dep.monthly_cost() == 0.0

    @pytest.mark.parametrize(
        "builder",
        [
            mysql_on_ebs,
            on_tiera("memcached-replicated"),
            on_tiera("memcached-ebs"),
            on_tiera("memcached-s3"),
        ],
        ids=[
            "mysql_on_ebs",
            "mysql_on_memcached_replicated",
            "mysql_on_memcached_ebs",
            "mysql_on_memcached_s3",
        ],
    )
    def test_each_stack_runs_a_transaction(self, builder):
        dep = builder()
        load_table(dep.db, rows=100, clock=dep.clock)
        workload = SysbenchOltp(dep.db, 100, hot_fraction=0.5, read_only=False)
        from repro.simcloud.resources import RequestContext

        ctx = RequestContext(dep.clock)
        assert workload(0, ctx) == "rw"
        assert ctx.elapsed > 0
