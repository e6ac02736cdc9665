"""The §4.1 deployments: MySQL on EBS, on Tiera instances, in memory.

Each builder assembles one complete stack — cluster, storage, file
system, minidb — matching a deployment the paper benchmarks:

* **MySQL On EBS** — a single EBS tier; the EC2 instance's OS buffer
  cache sits between the database and the volume (this cache is why the
  paper's read-only gains are smaller than read-write ones).
* **MySQL on Tiera** — minidb through the FUSE gateway over a Tiera
  deployment that :func:`repro.bench.sim.build` made: §4.1.1's
  ``memcached-replicated`` (two Memcached tiers in different AZs, both
  written before the ack), ``memcached-ebs`` (write-through Memcached +
  EBS) or ``memcached-s3`` (a small co-located Memcached LRU cache over
  S3, the cost-optimised instance).
* **Memory Engine** — MySQL's Memory engine: no Tiera, no files,
  table-level locks (the ≈0.15 TPS baseline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.minidb.database import Database
from repro.core.instance import TieraInstance
from repro.core.server import TieraServer
from repro.core.units import parse_size
from repro.fs.cache import PageCache
from repro.fs.filesystem import TieraFileSystem
from repro.fs.rawfs import RawDeviceFileSystem
from repro.simcloud.cluster import Cluster
from repro.simcloud.pricing import CostMeter, PriceBook
from repro.simcloud.services.blockstore import SimBlockVolume

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
    return Cluster(seed=seed), CostMeter()


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
    cluster, meter = _stack(seed)
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


def mysql_on_tiera(sim, pool_pages: int = DEFAULT_POOL_PAGES) -> Deployment:
    """minidb on ``sim``'s Tiera instance (a :class:`repro.bench.sim.Sim`),
    through the FUSE gateway: no OS cache on this path."""
    fs = TieraFileSystem(sim.server)
    db = Database(fs, "sbtest", buffer_pool_pages=pool_pages)
    instance = sim.instance
    return Deployment(
        f"Tiera {instance.name}", sim.cluster, sim.registry.meter, db,
        instance, sim.server, fs,
    )


def mysql_memory_engine(seed: int = 2014) -> Deployment:
    """MySQL Memory Engine: tables in one node's RAM, table locks only."""
    cluster, meter = _stack(seed)
    db = Database(None, "sbtest", engine="memory")
    return Deployment("MySQL Memory Engine", cluster, meter, db)
