"""RawDeviceFileSystem: kernel-style caching, coalescing, readahead."""

import pytest

from repro.fs.cache import PageCache
from repro.fs.filesystem import FileSystemError
from repro.fs.rawfs import RawDeviceFileSystem
from repro.simcloud.latency import FixedLatency
from repro.simcloud.resources import RequestContext
from repro.simcloud.services.blockstore import SimBlockVolume


@pytest.fixture
def volume(cluster):
    node = cluster.add_node("host")
    return SimBlockVolume(
        name="vol", node=node, clock=cluster.clock, rng=cluster.rng,
        latency=FixedLatency(0.004), write_multiplier=1.0,
    )


@pytest.fixture
def rawfs(volume):
    return RawDeviceFileSystem(volume, page_cache=PageCache(64 * 1024))


def fresh_ctx(cluster):
    return RequestContext(cluster.clock)


class TestIOSemantics:
    def test_roundtrip(self, rawfs):
        with rawfs.open("/f", "w") as handle:
            handle.write(b"hello")
        with rawfs.open("/f", "r") as handle:
            assert handle.read() == b"hello"

    def test_sparse_extension(self, rawfs):
        with rawfs.open("/f", "w") as handle:
            handle.seek(10000)
            handle.write(b"x")
        with rawfs.open("/f", "r") as handle:
            assert handle.read(3) == b"\x00\x00\x00"
        assert rawfs.size_of("/f") == 10001

    def test_truncate(self, rawfs):
        with rawfs.open("/f", "w") as handle:
            handle.write(b"x" * 9000)
            handle.truncate(100)
        assert rawfs.size_of("/f") == 100

    def test_rename_unlink(self, rawfs):
        rawfs.open("/a", "w").close()
        rawfs.rename("/a", "/b")
        assert rawfs.listdir() == ["/b"]
        rawfs.unlink("/b")
        assert rawfs.listdir() == []

    def test_read_only_rejects_write(self, rawfs):
        rawfs.open("/f", "w").close()
        with pytest.raises(FileSystemError):
            rawfs.open("/f", "r").write(b"no")


class TestDeviceCharging:
    def test_consecutive_blocks_coalesce_into_one_request(
        self, cluster, volume, rawfs
    ):
        with rawfs.open("/f", "w") as handle:
            handle.write(b"x" * (8 * 4096))  # 8 consecutive blocks
            ctx = fresh_ctx(cluster)
            handle.flush(ctx=ctx)
        # One coalesced device request, not eight.
        assert volume.op_counts.get("put", 0) == 1
        assert ctx.elapsed == pytest.approx(0.004, rel=0.01)

    def test_scattered_blocks_cost_separate_requests(self, cluster, volume, rawfs):
        with rawfs.open("/f", "w") as handle:
            handle.write(b"x" * (32 * 4096))
        gets = volume.op_counts.get("get", 0)
        rawfs.page_cache.clear()  # drop write-populated pages
        handle = rawfs.open("/f", "r")
        ctx = fresh_ctx(cluster)
        for block in (0, 10, 20):  # non-consecutive: three requests
            handle.seek(block * 4096)
            handle.read(100, ctx=ctx)
        assert volume.op_counts.get("get", 0) - gets == 3
        handle.close()

    def test_page_cache_absorbs_rereads(self, cluster, volume, rawfs):
        with rawfs.open("/f", "w") as handle:
            handle.write(b"x" * 4096)
        gets = volume.op_counts.get("get", 0)
        handle = rawfs.open("/f", "r")
        handle.read(100, ctx=fresh_ctx(cluster))
        handle.seek(0)
        handle.read(100, ctx=fresh_ctx(cluster))
        assert volume.op_counts.get("get", 0) == gets  # stayed in cache
        handle.close()

    def test_sequential_misses_trigger_readahead(self, cluster, volume):
        # A cache too small to matter, so reads hit the device.
        fs = RawDeviceFileSystem(volume, page_cache=PageCache(10 ** 6))
        with fs.open("/f", "w") as handle:
            handle.write(b"x" * (64 * 4096))
        fs.page_cache.clear()
        gets = volume.op_counts.get("get", 0)
        handle = fs.open("/f", "r")
        # Read 40 blocks one by one, sequentially.
        for block in range(40):
            handle.seek(block * 4096)
            handle.read(4096, ctx=fresh_ctx(cluster))
        handle.close()
        # Far fewer device requests than blocks, thanks to readahead.
        assert volume.op_counts.get("get", 0) - gets <= 4

    def test_readahead_probes_are_not_demand_reads(self, cluster, volume):
        """Only the two demand misses count; the readahead window's probes
        (3 absent blocks, 29 cached ones) count as neither hits nor
        misses, in the tallies and in the registry alike."""
        cache = PageCache(10 ** 6, obs=cluster.obs)
        fs = RawDeviceFileSystem(volume, page_cache=cache)
        with fs.open("/f", "w") as handle:
            handle.write(b"x" * (64 * 4096))
        cache.clear()
        handle = fs.open("/f", "r")
        for block in range(40, 4, -1):  # warm 5..40, never sequentially
            handle.seek(block * 4096)
            handle.read(4096, ctx=fresh_ctx(cluster))
        metrics = cluster.obs.metrics
        hits = metrics.counter("tiera_page_cache_hits_total")
        misses = metrics.counter("tiera_page_cache_misses_total")
        before = (cache.hits, cache.misses, hits.total(), misses.total())
        for block in (0, 1):  # two demand misses; the second reads ahead
            handle.seek(block * 4096)
            handle.read(4096, ctx=fresh_ctx(cluster))
        handle.close()
        after = (cache.hits, cache.misses, hits.total(), misses.total())
        assert [b - a for a, b in zip(before, after)] == [0, 2, 0, 2]
        assert cache.get("/f", 33) is not None  # the window was read in

    def test_failed_volume_times_out(self, cluster, volume, rawfs):
        with rawfs.open("/f", "w") as handle:
            handle.write(b"x" * 4096)
        volume.fail()
        rawfs.page_cache.clear()
        from repro.simcloud.errors import ServiceUnavailableError

        handle = rawfs.open("/f", "r")
        ctx = fresh_ctx(cluster)
        with pytest.raises(ServiceUnavailableError):
            handle.read(100, ctx=ctx)
        assert ctx.elapsed == pytest.approx(volume.timeout)


class TestPageCache:
    def test_lru_eviction_by_bytes(self):
        cache = PageCache(8192)
        cache.put("/f", 0, b"x" * 4096)
        cache.put("/f", 1, b"x" * 4096)
        cache.put("/f", 2, b"x" * 4096)  # evicts block 0
        assert cache.get("/f", 0) is None
        assert cache.get("/f", 2) is not None

    def test_hit_refreshes(self):
        cache = PageCache(8192)
        cache.put("/f", 0, b"x" * 4096)
        cache.put("/f", 1, b"x" * 4096)
        cache.get("/f", 0)
        cache.put("/f", 2, b"x" * 4096)  # evicts 1, not 0
        assert cache.get("/f", 0) is not None
        assert cache.get("/f", 1) is None

    def test_invalidate_path(self):
        cache = PageCache(10 ** 6)
        cache.put("/a", 0, b"1")
        cache.put("/a", 1, b"2")
        cache.put("/b", 0, b"3")
        cache.invalidate("/a")
        assert cache.get("/a", 0) is None
        assert cache.get("/b", 0) == b"3"

    def test_hit_rate(self):
        cache = PageCache(10 ** 6)
        cache.put("/f", 0, b"x")
        cache.get("/f", 0)
        cache.get("/f", 1)
        assert cache.hit_rate == pytest.approx(0.5)
