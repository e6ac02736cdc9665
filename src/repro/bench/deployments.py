"""The §4.1 deployments: MySQL on EBS, on Tiera instances, in memory.

Each builder assembles one complete stack — cluster, Tiera instance,
FUSE-gateway file system, minidb — matching a deployment the paper
benchmarks:

* **MySQL On EBS** — a single EBS tier; the EC2 instance's OS buffer
  cache sits between the database and the volume (this cache is why the
  paper's read-only gains are smaller than read-write ones).
* **MemcachedReplicated** — two Memcached tiers in different AZs,
  both written before acknowledging.
* **MemcachedEBS** — write-through Memcached + EBS.
* **MemcachedS3** — a small co-located Memcached LRU cache over S3
  (the §4.1.1 cost-optimised instance).
* **Memory Engine** — MySQL's Memory engine: no Tiera, no files,
  table-level locks (the ≈0.15 TPS baseline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.minidb.database import Database
from repro.core.instance import TieraInstance
from repro.core.server import TieraServer
from repro.core.templates import (
    memcached_ebs_instance,
    memcached_replicated_instance,
    memcached_s3_instance,
)
from repro.core.units import parse_size
from repro.fs.cache import PageCache
from repro.fs.filesystem import TieraFileSystem
from repro.fs.rawfs import RawDeviceFileSystem
from repro.simcloud.pricing import PriceBook
from repro.simcloud.services.blockstore import SimBlockVolume
from repro.simcloud.cluster import Cluster
from repro.simcloud.pricing import CostMeter
from repro.tiers.registry import TierRegistry

#: MySQL buffer pool: the paper uses stock MySQL config on an
#: m3.medium.  256 pages (1 MB) against the ~10 MB sbtest table keeps
#: the pool:data ratio of the paper's caches-stop-helping regime.
DEFAULT_POOL_PAGES = 256

#: The EC2 instance's OS buffer cache available to a direct-EBS
#: deployment (the Tiera/FUSE path bypasses it).
DEFAULT_OS_CACHE = "2M"


@dataclass
class Deployment:
    """One assembled benchmark stack."""

    name: str
    cluster: Cluster
    meter: CostMeter
    db: Database
    instance: Optional[TieraInstance] = None
    server: Optional[TieraServer] = None
    fs: object = None
    #: for stacks without a Tiera instance (raw EBS, memory engine)
    cost_override: Optional[float] = None
    volume: Optional[SimBlockVolume] = None

    @property
    def clock(self):
        return self.cluster.clock

    def monthly_cost(self) -> float:
        if self.cost_override is not None:
            return self.cost_override
        if self.instance is None:
            return 0.0
        return self.instance.monthly_cost()


def _stack(seed: int):
    cluster = Cluster(seed=seed)
    meter = CostMeter()
    registry = TierRegistry(cluster, meter=meter)
    return cluster, meter, registry


def mysql_on_ebs(
    ebs_size: str = "8G",
    pool_pages: int = DEFAULT_POOL_PAGES,
    os_cache: str = DEFAULT_OS_CACHE,
    seed: int = 2014,
) -> Deployment:
    """The standard cloud deployment: MySQL on a non-root EBS volume.

    No middleware in this stack: the database talks to the volume
    through :class:`~repro.fs.rawfs.RawDeviceFileSystem` — kernel page
    cache, request coalescing, and all — exactly the baseline the paper
    compares against.
    """
    cluster, meter, _ = _stack(seed)
    node = cluster.add_node("mysql-host")
    volume = SimBlockVolume(
        name="ebs-volume",
        node=node,
        clock=cluster.clock,
        capacity=parse_size(ebs_size),
        rng=cluster.rng,
        meter=meter,
    )
    fs = RawDeviceFileSystem(
        volume, page_cache=PageCache(parse_size(os_cache), obs=cluster.obs)
    )
    db = Database(fs, "sbtest", buffer_pool_pages=pool_pages)
    dep = Deployment("MySQL On EBS", cluster, meter, db, None, None, fs)
    dep.cost_override = PriceBook().monthly_storage_cost("ebs", parse_size(ebs_size))
    dep.volume = volume
    return dep


def mysql_on_memcached_replicated(
    mem: str = "512M",
    pool_pages: int = DEFAULT_POOL_PAGES,
    seed: int = 2014,
) -> Deployment:
    """Tiera MemcachedReplicated: both AZ replicas written before ack."""
    cluster, meter, registry = _stack(seed)
    instance = memcached_replicated_instance(registry, mem=mem)
    server = TieraServer(instance)
    fs = TieraFileSystem(server)  # FUSE path: no OS cache
    db = Database(fs, "sbtest", buffer_pool_pages=pool_pages)
    return Deployment(
        "Tiera MemcachedReplicated", cluster, meter, db, instance, server, fs
    )


def mysql_on_memcached_ebs(
    mem: str = "512M",
    ebs: str = "8G",
    pool_pages: int = DEFAULT_POOL_PAGES,
    seed: int = 2014,
) -> Deployment:
    """Tiera MemcachedEBS: write-through to EBS, reads from Memcached."""
    cluster, meter, registry = _stack(seed)
    instance = memcached_ebs_instance(registry, mem=mem, ebs=ebs)
    server = TieraServer(instance)
    fs = TieraFileSystem(server)
    db = Database(fs, "sbtest", buffer_pool_pages=pool_pages)
    return Deployment(
        "Tiera MemcachedEBS", cluster, meter, db, instance, server, fs
    )


def mysql_on_memcached_s3(
    mem: str = "1M",
    pool_pages: int = DEFAULT_POOL_PAGES,
    seed: int = 2014,
) -> Deployment:
    """Tiera MemcachedS3 (§4.1.1 cost optimisation): a small co-located
    Memcached LRU cache over S3.  The cache is deliberately not large
    enough for the database; S3 is the persistent store."""
    cluster, meter, registry = _stack(seed)
    instance = memcached_s3_instance(registry, mem=mem, colocated=True)
    server = TieraServer(instance)
    fs = TieraFileSystem(server)
    db = Database(fs, "sbtest", buffer_pool_pages=pool_pages)
    return Deployment(
        "Tiera MemcachedS3", cluster, meter, db, instance, server, fs
    )


def mysql_memory_engine(seed: int = 2014) -> Deployment:
    """MySQL Memory Engine: tables in one node's RAM, table locks only."""
    cluster, meter, _ = _stack(seed)
    db = Database(None, "sbtest", engine="memory")
    return Deployment("MySQL Memory Engine", cluster, meter, db)
