"""The placement engine's coldness index against the scan it replaced.

:class:`ScanIndex` is the planner's demotion source before the index
(docs/PLACEMENT.md, "Coldest first without a scan"): walk the whole
table, decay every key's heat to ``now``, sort every copy in a tier with
a slower sibling.  :func:`checked_plans` makes every ``plan()`` run both
ways and requires identical plan dicts, so each test here is "the index
plans exactly what the scan did" after one event that changes the index
— and over whole runs, at every cycle.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.bench.figures import run_figure
from repro.core.durability import fsck, reopen_instance, simulate_crash
from repro.core.placement import PlacementEngine
from repro.core.server import TieraServer
from repro.core.templates import lru_tiered_instance
from repro.kvstore import MemoryStore
from repro.simcloud.cluster import Cluster
from repro.simcloud.resources import RequestContext
from repro.tiers.registry import TierRegistry
from repro.workloads.distributions import ZipfianKeys

from tests.core.conftest import build_instance


class ScanIndex:
    """The reference: every candidate copy from one table scan, sorted
    by ``(heat, last_access, key, src)``."""

    def __init__(self, instance):
        self.instance = instance

    def sync(self, order, now) -> None:
        pass

    def walk(self, srcs, now):
        tracker = self.instance.obs.heat
        srcs = set(srcs)
        out = []
        for meta in self.instance.iter_meta():
            heat = tracker.heat_rate(meta.key, now)
            last_access = tracker.last_access(meta.key)
            for src in meta.locations:
                if src in srcs:
                    out.append((heat, last_access, meta.key, src, meta))
        out.sort(key=lambda item: item[:4])
        yield from out


def reference_plan(engine, now=None):
    """``engine.plan(now)`` with the scan as its demotion source."""
    index, engine.index = engine.index, ScanIndex(engine.instance)
    try:
        return PLAN(engine, now)
    finally:
        engine.index = index


PLAN = PlacementEngine.plan


@pytest.fixture
def checked_plans(monkeypatch):
    """Every ``plan()`` from here on also runs against the scan and must
    agree with it; yields the list of plans made."""
    plans = []

    def plan(engine, now=None):
        got = PLAN(engine, now)
        assert got == reference_plan(engine, now), f"plan {len(plans)}"
        plans.append(got)
        return got

    monkeypatch.setattr(PlacementEngine, "plan", plan)
    return plans


# -- a three-tier instance with the engine on ---------------------------------

TIERS = [
    ("tier1", "Memcached", 64 * 1024),
    ("tier2", "EBS", 10 ** 6),
    ("tier3", "S3", None),
]

#: Every candidate the walk yields becomes a decision, so a plan lists
#: the whole coldest-first order, not just its head.
EVERYTHING = dict(min_score=-1e9, max_moves=100, hysteresis=0.0)


class Rig:
    """Twelve 512-byte objects spread over the three tiers with uneven
    heat: the default placement puts each in tier1, then four move to
    tier2, two to tier3 and one gains a tier2 copy."""

    def __init__(self, tmp_path=None, seed=11, **heat):
        self.cluster = Cluster(seed=seed)
        self.store = MemoryStore()
        self.instance = build_instance(
            TierRegistry(self.cluster), TIERS, metadata_store=self.store,
            name="indexed",
        )
        self.instance.enable_durability()
        if tmp_path is not None:
            self.instance.enable_backups(str(tmp_path))
        self.server = TieraServer(self.instance)
        self.instance.enable_heat(**{"windows": (10.0, 60.0), **heat})
        self.engine = self.instance.placement_engine(**EVERYTHING)
        for i in range(12):
            self.put(f"k{i:02d}", bytes([i]) * 512)
        for key in ("k00", "k01", "k02", "k03"):
            self.move(key, ("tier2",), drop_from=("tier1",))
        for key in ("k04", "k05"):
            self.move(key, ("tier3",), drop_from=("tier1",))
        self.move("k06", ("tier2",))
        for key, times in (("k07", 5), ("k08", 3), ("k01", 2), ("k10", 1)):
            for _ in range(times):
                self.get(key)
                self.wait(0.5)

    def ctx(self):
        return RequestContext(self.cluster.clock)

    def settle(self, ctx):
        if ctx.time > self.cluster.clock.now():
            self.cluster.clock.run_until(ctx.time)

    def wait(self, seconds):
        self.cluster.clock.run_until(self.cluster.clock.now() + seconds)

    def put(self, key, data):
        ctx = self.ctx()
        self.server.put_object(key, data, ctx=ctx).raise_for_error()
        self.settle(ctx)

    def get(self, key):
        ctx = self.ctx()
        self.server.get_object(key, ctx=ctx).raise_for_error()
        self.settle(ctx)

    def move(self, key, to, drop_from=()):
        ctx = self.ctx()
        self.instance.relocate(key, to, ctx, drop_from=drop_from)
        self.settle(ctx)


def demotions(plan):
    return [(d["key"], d["from"]) for d in plan["decisions"]]


class TestEventsThatChangeTheIndex:
    """Each test builds the index (a first plan), changes what it
    indexes, and plans again; ``checked_plans`` compares every plan."""

    def test_a_tier_removed_through_reconfigure(self, checked_plans):
        rig = Rig()
        assert ("k00", "tier2") in demotions(rig.engine.plan())
        rig.instance.reconfigure(remove_tiers=["tier2"])
        plan = rig.engine.plan()
        assert plan["tier_order"] == ["tier1", "tier3"]
        assert all(src == "tier1" for _, src in demotions(plan))

    def test_crash_and_reopen(self, checked_plans):
        rig = Rig()
        rig.engine.plan()
        simulate_crash(rig.instance)
        successor, _ = reopen_instance(
            rig.instance.name, list(rig.instance.tiers), rig.instance.policy,
            rig.cluster.clock, rig.store,
        )
        rig.instance, rig.server = successor, TieraServer(successor)
        engine = successor.placement_engine(**EVERYTHING)
        # memcached died with the process: only tier2 copies are left
        assert {src for _, src in demotions(engine.plan())} == {"tier2"}
        rig.put("k07", b"again" * 100)
        rig.get("k02")
        assert ("k07", "tier1") in demotions(engine.plan())

    def test_a_point_in_time_restore(self, checked_plans, tmp_path):
        rig = Rig(tmp_path)
        manager = rig.instance.backup
        manager.snapshot(kind="full")
        rig.put("k20", b"x" * 512)
        rig.move("k03", ("tier1",))
        pinned = manager.last_seq
        rig.put("k21", b"y" * 512)
        rig.move("k20", ("tier2",), drop_from=("tier1",))
        before = demotions(rig.engine.plan())
        assert ("k20", "tier2") in before and ("k21", "tier1") in before
        manager.restore(to_seq=pinned)
        after = demotions(rig.engine.plan())
        assert ("k20", "tier1") in after and ("k03", "tier1") in after
        assert not any(key == "k21" for key, _ in after)

    def test_new_heat_windows(self, checked_plans):
        rig = Rig()
        rig.engine.plan()
        rig.server.configure("heat", windows=[0.5, 5.0]).raise_for_error()
        rig.wait(3.0)
        rig.get("k09")
        rig.engine.plan()

    def test_a_tracker_smaller_than_the_table(self, checked_plans):
        rig = Rig(max_objects=5)
        tracker = rig.instance.obs.heat
        assert len(tracker._objects) == 5 < rig.instance.object_count()
        rig.engine.plan()
        for key in ("k02", "k11", "k06", "k07", "k03", "k09", "k02"):
            rig.get(key)  # each re-tracks a key and drops the LRU one
            rig.wait(0.25)
            rig.engine.plan()
        untracked = [
            key for key, _ in demotions(rig.engine.plan())
            if tracker.state(key) == (0.0, 0.0)
        ]
        assert untracked

    def test_an_fsck_adopt(self, checked_plans):
        rig = Rig()
        meta = rig.instance.meta("k06")
        meta.locations.discard("tier1")
        rig.instance.persist_meta(meta)
        assert ("k06", "tier1") not in demotions(rig.engine.plan())
        report = fsck(rig.instance, repair=True)
        assert [f["repair"] for f in report["findings"]] == ["adopt"]
        assert ("k06", "tier1") in demotions(rig.engine.plan())

    def test_a_move_then_an_overwrite_of_the_moved_key(self, checked_plans):
        rig = Rig()
        for _ in range(5):
            rig.get("k04")  # sketch-confirmed hot, but only in tier3
        ctx = rig.ctx()
        plan = rig.engine.run_cycle(ctx)
        rig.settle(ctx)
        promoted = [d for d in plan["decisions"] if d["action"] == "promote"]
        assert [(d["key"], d["to"], d["applied"]) for d in promoted] == [
            ("k04", "tier1", True)
        ]
        rig.engine.plan()
        rig.put("k04", b"new" * 200)  # refreshes the copy the move made
        assert ("k04", "tier1") in demotions(rig.engine.plan())


    def test_churn_deletes_and_compaction(self, checked_plans):
        # Plans that read one candidate pop little: retired entries pile
        # up in the heaps until a compaction drops them.
        rig = Rig()
        rig.engine.reconfigure(max_moves=1)
        index = rig.engine.index
        for round_ in range(30):
            rig.put(f"c{round_:02d}", b"c" * 256)
            if round_:
                ctx = rig.ctx()
                rig.server.delete_object(f"c{round_ - 1:02d}", ctx=ctx)
                rig.settle(ctx)
            for key in ("k07", "k08", "k10"):
                rig.move(key, ("tier2",), drop_from=("tier1",))
                rig.engine.plan()
                rig.move(key, ("tier1",), drop_from=("tier2",))
                rig.engine.plan()
        assert len(index._live) == sum(
            len(meta.locations - {"tier3"}) for meta in rig.instance.iter_meta()
        )
        assert sum(map(len, index._heaps.values())) <= 2 * len(index._live) + 64


class TestFloatEdges:
    """Orders the κ argument alone would get wrong in floating point."""

    def test_near_ties(self, checked_plans):
        rig = Rig()
        rig.wait(1000.0)  # κ near 100, where its last bit outweighs a heat's
        tracker = rig.instance.obs.heat
        at = rig.cluster.clock.now()
        for key in ("k02", "k03", "k09"):  # exact ties: order by key
            tracker.record("get", key, at=at)
        keys = [f"t{i:02d}" for i in range(40)]
        for key in keys:
            rig.put(key, b"t" * 64)
        rig.wait(5.0)
        # κ level to the last bit or two, heats from (rate, last_access)
        # pairs whose rounding can order them the other way
        w, base = tracker.windows[0], at - 50.0
        rng = random.Random(5)
        for key in keys:
            stats = tracker._objects[key]
            stats.last_access = base + rng.uniform(0.0, 40.0)
            rate = 0.9 * math.exp((base - stats.last_access) / w)
            for _ in range(rng.randrange(3)):
                rate = math.nextafter(rate, math.inf)
            stats.rates[0] = rate
            rig.instance.persist_meta(rig.instance.meta(key))
        rig.engine.plan()
        rig.wait(7.3)
        rig.engine.plan()

    def test_heat_that_underflows(self, checked_plans):
        # w = 0.01 s: 7 s idle is 700 windows (subnormal-range heat),
        # 7.5 s is 750 (exactly 0.0), 1 s is 100 (normal)
        rig = Rig(windows=(0.01, 1.0))
        tracker = rig.instance.obs.heat
        # Two rates, one last access a millisecond later: the later key
        # has the lower κ, but once both heats are 0.0 the earlier one
        # sorts first.
        at = rig.cluster.clock.now()
        tracker.record("get", "k09", at=at)
        tracker.record("get", "k09", at=at + 0.0001)
        tracker.record("get", "k11", at=at + 0.001)
        for gap, key in ((0.5, "k02"), (5.5, "k03"), (0.5, "k06")):
            rig.wait(gap)
            rig.get(key)
        keys = ("k02", "k03", "k06", "k09", "k11")
        for _ in range(4):
            rig.wait(0.25)
            heats = {
                tracker.heat_rate(key, rig.cluster.clock.now()) for key in keys
            }
            rig.engine.plan()
        assert 0.0 in heats and any(0.0 < h < 1e-300 for h in heats)
        # zero heats the table cap then drops: (0.0, last_access 0.0)
        tracker.enable(max_objects=3)
        for key in ("k07", "k08"):
            rig.get(key)
            rig.engine.plan()

    def test_last_access_ahead_of_the_clock(self, checked_plans):
        rig = Rig()
        tracker = rig.instance.obs.heat
        now = rig.cluster.clock.now()
        rig.engine.plan()
        for offset, key in ((2.0, "k03"), (30.0, "k08"), (0.001, "k11")):
            tracker.record("get", key, at=now + offset)  # a timer's ctx.time
        assert tracker.last_access("k08") > now
        rig.engine.plan()
        rig.engine.plan(now=now + 1.0)

    def test_a_plan_in_the_past(self, checked_plans):
        rig = Rig(windows=(0.01, 1.0))
        rig.wait(8.0)
        now = rig.cluster.clock.now()
        rig.engine.plan()  # heats at 0.0 from here on
        rig.engine.plan(now=now - 7.9)


# -- whole runs, every cycle ----------------------------------------------------


def test_every_cycle_of_the_adaptive_placement_row(checked_plans):
    trial = run_figure("adaptive_placement", "smoke")
    moves = {row[0]: row[-1] for row in trial.rows}["adaptive"]
    assert moves == 218
    assert len(checked_plans) == 153


def test_every_cycle_of_a_tiered_full_shaped_run(checked_plans):
    """Table 2's exclusive Memcached -> EBS -> S3 chain, the data four
    times the fast tier, one plan per virtual second, zipfian GETs and
    fresh inserts — and a heat table smaller than the object table."""
    cluster = Cluster(seed=2014)
    registry = TierRegistry(cluster)
    keys, size = 400, 1024
    instance = lru_tiered_instance(
        registry, "TieredShaped", mem=str(keys * size // 4),
        ebs=str(keys * size // 2),
    )
    server = TieraServer(instance)
    server.configure("heat", max_objects=300).raise_for_error()
    server.configure(
        "placement", objective="balanced", interval=1.0
    ).raise_for_error()
    ctx = RequestContext(cluster.clock)
    for i in range(keys):
        server.put_object(f"user{i:05d}", bytes([i % 251]) * size, ctx=ctx)
    zipf = ZipfianKeys(keys, theta=0.99, seed=7)
    mix = random.Random(8)
    inserted = 0
    for _ in range(3000):
        if mix.random() < 0.8:
            key = f"user{zipf.next_rank():05d}"
            server.get_object(key, ctx=ctx).raise_for_error()
        else:
            inserted += 1
            server.put_object(
                f"new{inserted:05d}", b"n" * size, ctx=ctx
            ).raise_for_error()
        ctx.wait(0.01)
        cluster.clock.run_until(ctx.time)
    assert instance.placement.cycles == len(checked_plans) > 25
    assert instance.object_count() > 300


def test_a_plan_reads_a_prefix_not_the_table(monkeypatch):
    """Once built, the index costs a plan what it reads: a few heat
    reads, however many objects there are."""
    rig = Rig()
    for i in range(2000):
        rig.put(f"bulk{i:05d}", b"b" * 16)
    rig.engine.reconfigure(min_score=0.05, max_moves=8)
    rig.engine.plan()  # builds the index
    calls = []
    tracker = rig.instance.obs.heat
    heat_rate = tracker.heat_rate
    monkeypatch.setattr(
        tracker, "heat_rate", lambda *a: calls.append(a) or heat_rate(*a)
    )
    rig.engine.plan()
    assert 0 < len(calls) < 20
