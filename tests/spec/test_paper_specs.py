"""The paper's figures, compiled verbatim and run.

Each spec below is Figure 3/4/5/6 as printed (modulo whitespace), plus
the under-15-line §4.1.1 instances.  Compiling them must yield running
instances whose behaviour matches what the paper describes.  The
packaged instances the benchmarks deploy (``repro/spec/paper/``) are
checked in ``test_paper_instances.py``.
"""

import pytest

from repro.core.server import TieraServer
from repro.spec import compile_spec

FIGURE_3 = """
Tiera LowLatencyInstance(time t) {
    % two tiers specified with initial sizes
    tier1: { name: Memcached, size: 5G };
    tier2: { name: EBS, size: 5G };
    % action event defined to always store data
    % into Memcached
    event(insert.into) : response {
        insert.object.dirty = true;
        store(what: insert.object, to: tier1);
    }
    % write back policy: copying data to
    % persistent store on a timer event
    event(time=t) : response {
        copy(what: object.location == tier1 &&
                   object.dirty == true,
             to: tier2);
    }
}
"""

FIGURE_4 = """
Tiera PersistentInstance() {
    tier1: { name: Memcached, size: 200M };
    tier2: { name: EBS, size: 1G };
    tier3: { name: S3, size: 10G };
    % write-through policy using action event
    % and copy response
    event(insert.into == tier1) : response {
        copy(what: insert.object, to: tier2);
    }
    % simple backup policy
    background event(tier2.filled == 50%) : response {
        copy(what: object.location == tier2,
             to: tier3, bandwidth: 40KB/s);
    }
}
"""

FIGURE_5_LRU = """
Tiera LruInstance() {
    tier1: { name: Memcached, size: 8K };
    tier2: { name: EBS, size: 1G };
    % LRU Policy
    event(insert.into == tier1) : response {
        if (tier1.filled) {
            % Evict the oldest item to another tier
            move(what: tier1.oldest, to: tier2);
        }
        store(what: insert.object, to: tier1);
    }
}
"""

FIGURE_5_MRU = """
Tiera MruInstance() {
    tier1: { name: Memcached, size: 8K };
    tier2: { name: EBS, size: 1G };
    % MRU Policy
    event(insert.into == tier1) : response {
        if (tier1.filled) {
            % Evict the newest item to another tier
            move(what: tier1.newest, to: tier2);
        }
        store(what: insert.object, to: tier1);
    }
}
"""

FIGURE_6 = """
Tiera GrowingInstance(time t) {
    tier1: { name: Memcached, size: 16K };
    tier2: { name: EBS, size: 2G };
    % Placement Logic
    event(insert.into) : response {
        store(what: insert.object, to: tier1);
    }
    % Growing with workload, add as much Memcached
    % storage as its current size everytime the
    % tier is 75% full
    event(tier1.filled == 75%) : response {
        grow(what: tier1, increment: 100%);
    }
    % write-back policy
    event(time=t) : response {
        move(what: object.location == tier1, to: tier2);
    }
}
"""

MEMCACHED_REPLICATED = """
Tiera MemcachedReplicated() {
    tier1: { name: Memcached, size: 1G, zone: useast1a };
    tier2: { name: Memcached, size: 1G, zone: useast1b };
    event(insert.into) : response {
        store(what: insert.object, to: tier1);
        store(what: insert.object, to: tier2);
    }
}
"""


class TestFigure3:
    def test_compiles_and_runs(self, registry, cluster):
        inst = compile_spec(FIGURE_3, registry, args={"t": 30})
        server = TieraServer(inst)
        server.put_object("k", b"v").raise_for_error()
        assert inst.meta("k").locations == {"tier1"}
        assert inst.meta("k").dirty
        cluster.clock.advance(31)
        assert inst.meta("k").locations == {"tier1", "tier2"}
        assert not inst.meta("k").dirty

    def test_missing_argument_rejected(self, registry):
        from repro.core.errors import PolicyError

        with pytest.raises(PolicyError):
            compile_spec(FIGURE_3, registry)

    def test_spec_is_under_15_lines(self):
        """§4.1.1: 'instance specification files ... under 15 lines each
        (in contrast to nearly 4000 additional lines of code)'."""
        for spec in (MEMCACHED_REPLICATED,):
            meaningful = [
                line
                for line in spec.strip().splitlines()
                if line.strip() and not line.strip().startswith("%")
            ]
            assert len(meaningful) <= 15


class TestFigure4:
    def test_write_through(self, registry):
        inst = compile_spec(FIGURE_4, registry)
        server = TieraServer(inst)
        server.put_object("k", b"v").raise_for_error()
        assert inst.meta("k").locations == {"tier1", "tier2"}

    def test_backup_event_is_background(self, registry):
        inst = compile_spec(FIGURE_4, registry)
        assert inst.policy.threshold_rules()[0].background


class TestFigure5:
    def test_lru_evicts_oldest(self, registry):
        inst = compile_spec(FIGURE_5_LRU, registry)
        server = TieraServer(inst)
        for i in range(3):
            server.put_object(f"k{i}", bytes(4096)).raise_for_error()
        assert inst.meta("k0").locations == {"tier2"}
        assert inst.meta("k1").locations == {"tier1"}
        assert inst.meta("k2").locations == {"tier1"}

    def test_mru_evicts_newest(self, registry):
        inst = compile_spec(FIGURE_5_MRU, registry)
        server = TieraServer(inst)
        for i in range(3):
            server.put_object(f"k{i}", bytes(4096)).raise_for_error()
        # MRU: the most recently used resident (k1) was pushed out to
        # make room for k2; the oldest resident k0 stays.
        assert inst.meta("k0").locations == {"tier1"}
        assert inst.meta("k1").locations == {"tier2"}
        assert inst.meta("k2").locations == {"tier1"}


class TestFigure6:
    def test_grow_fires_at_75_percent(self, registry, cluster):
        inst = compile_spec(FIGURE_6, registry, args={"t": 3600})
        server = TieraServer(inst)
        for i in range(3):
            server.put_object(f"g{i}", bytes(4096)).raise_for_error()
        tier1 = inst.tiers.get("tier1")
        assert tier1.growing
        cluster.clock.advance(61)
        assert tier1.capacity == 32 * 1024

    def test_write_back_moves(self, registry, cluster):
        inst = compile_spec(FIGURE_6, registry, args={"t": 10})
        server = TieraServer(inst)
        server.put_object("k", bytes(1024)).raise_for_error()
        cluster.clock.advance(11)
        assert inst.meta("k").locations == {"tier2"}


class TestReplicatedSpec:
    def test_two_zones(self, registry):
        inst = compile_spec(MEMCACHED_REPLICATED, registry)
        server = TieraServer(inst)
        server.put_object("k", b"v").raise_for_error()
        assert inst.meta("k").locations == {"tier1", "tier2"}
        zones = {
            inst.tiers.get(name).service.node.zone.name
            for name in ("tier1", "tier2")
        }
        assert zones == {"useast1a", "useast1b"}
