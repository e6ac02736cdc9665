"""One counter per fact: each per-instance count is one registry cell,
labelled with its owner's hub-unique id, and the counts a component
reports are read-only views over its own cells (docs/OBSERVABILITY.md,
"Owner ids").
"""

import ast
from pathlib import Path

import pytest

from repro.bench.sim import build_shard_cluster
from repro.core import templates
from repro.core.control import ControlLayer
from repro.core.durability import reopen_instance, simulate_crash
from repro.core.placement import PlacementEngine
from repro.core.resilience import ResilienceLayer
from repro.core.server import TieraServer
from repro.fs.cache import PageCache
from repro.obs.heat import HeatTracker, merge_summaries
from repro.obs.hub import Observability
from repro.obs.registry import MetricsRegistry
from repro.simcloud.clock import SimClock
from repro.simcloud.cluster import Cluster
from repro.tiers.registry import TierRegistry

SRC = Path(__file__).parents[2] / "src" / "repro"

#: module -> class -> the counts that are views over registry cells
VIEWS = {
    "core/control.py": {"ControlLayer": ("fired",)},
    "core/resilience.py": {"ResilienceLayer": (
        "retry_count", "degraded_write_count", "read_repair_count",
        "replay_count", "corruption_count",
    )},
    "core/placement.py": {"PlacementEngine": ("cycles", "moves", "bytes_moved")},
    "obs/heat.py": {"HeatTracker": (
        "reads", "writes", "deletes", "_size_classes", "_tier_ops",
    )},
    "fs/cache.py": {"PageCache": ("hits", "misses")},
}


def self_writes(cls: ast.ClassDef):
    """``(line, attr)`` of every ``self.<attr>`` assigned or augmented
    anywhere in the class body."""
    out = []
    for node in ast.walk(cls):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if (
                        isinstance(sub, ast.Attribute)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "self"
                    ):
                        out.append((sub.lineno, sub.attr))
    return out


@pytest.mark.parametrize("module,cls,names", [
    (module, cls, names)
    for module, classes in VIEWS.items() for cls, names in classes.items()
])
def test_no_count_is_kept_beside_its_cell(module, cls, names):
    tree = ast.parse((SRC / module).read_text())
    [node] = [
        n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == cls
    ]
    assert [w for w in self_writes(node) if w[1] in names] == []


def test_the_lint_sees_a_tally():
    tree = ast.parse(
        "class C:\n"
        "    def f(self):\n"
        "        self.hits += 1\n"
        "        self.fired[k] = 2\n"
        "        self.misses: int = 0\n"
        "        other.hits = 3\n"
    )
    assert self_writes(tree.body[0]) == [(3, "hits"), (4, "fired"), (5, "misses")]


@pytest.mark.parametrize("cls,names", [
    (ControlLayer, ("fired",)),
    (ResilienceLayer, VIEWS["core/resilience.py"]["ResilienceLayer"]),
    (PlacementEngine, ("cycles", "moves", "bytes_moved")),
    (HeatTracker, ("reads", "writes", "deletes")),
    (PageCache, ("hits", "misses")),
])
def test_the_public_counts_are_read_only(cls, names):
    for name in names:
        view = getattr(cls, name)
        assert isinstance(view, property) and view.fset is None, name


def test_owner_ids_are_hub_unique_in_construction_order():
    obs = Observability(SimClock())
    assert [obs.owner("WriteThrough") for _ in range(3)] == [
        "WriteThrough", "WriteThrough#2", "WriteThrough#3",
    ]
    assert obs.owner("LruTiered") == "LruTiered"
    assert Observability(SimClock()).owner("WriteThrough") == "WriteThrough"


def samples(obs, family):
    return obs.metrics.snapshot()["metrics"][family]["samples"]


def test_shards_on_one_hub_count_under_their_own_owner():
    """Regression: every shard of a router built on one simcloud
    cluster is named ``WriteThrough``, so their ``tiera_objects`` gauges
    overwrote one another and their rule firings summed into one
    sample."""
    cluster, router, _, _ = build_shard_cluster(seed=2014, shards=4)
    for i in range(50):
        router.put_object(f"k{i}", b"v" * 32).raise_for_error()
    for i in range(50):
        router.get_object(f"k{i}").raise_for_error()
    instances = [router.shards[name].instance for name in sorted(router.shards)]
    owners = [instance.owner for instance in instances]
    assert owners == ["WriteThrough", "WriteThrough#2", "WriteThrough#3",
                      "WriteThrough#4"]
    fired = samples(cluster.obs, "tiera_rules_fired_total")
    assert sorted(fired) == sorted(
        f"instance={owner},rule=write-through" for owner in owners
    )
    objects = samples(cluster.obs, "tiera_objects")
    for instance in instances:
        assert instance.control.fired == {
            "write-through": fired[
                f"instance={instance.owner},rule=write-through"
            ]
        }
        assert objects[f"instance={instance.owner}"] == instance.object_count()
    assert sum(i.object_count() for i in instances) == 150  # R = 3
    router.cluster.stop()


def test_reading_a_view_adds_no_series():
    cluster, router, _, _ = build_shard_cluster(seed=1, shards=2, config=None)
    router.configure("resilience")
    router.configure("placement")
    router.put_object("k", b"v").raise_for_error()
    before = cluster.obs.metrics.snapshot()["metrics"]
    for server in router.shards.values():
        instance = server.instance
        dict(instance.control.fired)
        for name in VIEWS["core/resilience.py"]["ResilienceLayer"]:
            assert getattr(instance.resilience, name) == 0
        assert (instance.placement.cycles, instance.placement.moves,
                instance.placement.bytes_moved) == (0, 0, 0)
    heat = cluster.obs.heat
    assert (heat.reads, heat.writes, heat.deletes) == (0, 1, 0)
    after = cluster.obs.metrics.snapshot()["metrics"]
    assert {n: f["samples"] for n, f in after.items()} == {
        n: f["samples"] for n, f in before.items()
    }


def test_page_caches_on_one_hub_are_told_apart():
    obs = Observability(SimClock())
    first, second = PageCache(4096, obs=obs), PageCache(4096, obs=obs)
    first.put("/f", 0, b"x")
    first.get("/f", 0)
    second.get("/f", 0)
    assert (first.hits, first.misses, second.hits, second.misses) == (1, 0, 0, 1)
    assert samples(obs, "tiera_page_cache_hits_total") == {"cache=page-cache": 1.0}
    assert samples(obs, "tiera_page_cache_misses_total") == {
        "cache=page-cache#2": 1.0
    }


def test_a_bare_cache_counts_into_a_private_registry():
    cache = PageCache(4096)
    cache.get("/f", 0)
    assert (cache.hits, cache.misses, cache.hit_rate) == (0, 1, 0.0)


def test_a_reopened_instance_counts_afresh_under_the_next_owner():
    """The crashed incarnation's counts stay in the registry as history,
    but its live-state gauges go with it: no stale ``tiera_objects``
    reading sits beside its successor's."""
    registry = TierRegistry(Cluster(seed=1))
    instance = templates.write_through_instance(registry, mem="4M", ebs="4M")
    TieraServer(instance).put_object("k", b"v").raise_for_error()
    obs = instance.obs
    assert samples(obs, "tiera_objects") == {"instance=WriteThrough": 1.0}
    simulate_crash(instance)
    successor, _ = reopen_instance(
        name=instance.name, tiers=list(instance.tiers.ordered()),
        policy=instance.policy, clock=instance.clock,
        metadata_store=instance.metadata_store,
    )
    assert successor.owner == "WriteThrough#2"
    assert samples(obs, "tiera_objects") == {"instance=WriteThrough#2": 1.0}
    assert (instance.control.fired, successor.control.fired) == (
        {"write-through": 1}, {}
    )
    TieraServer(successor).put_object("k2", b"v").raise_for_error()
    assert successor.control.fired == {"write-through": 1}


def test_counter_total_sums_the_cells_that_carry_a_label_subset():
    counter = MetricsRegistry().counter("c")
    counter.inc(2, instance="a", tier="t1")
    counter.inc(3, instance="a", tier="t2")
    counter.inc(5, instance="b", tier="t1")
    assert counter.total() == 10
    assert counter.total(instance="a") == 5
    assert counter.total(tier="t1") == 7
    assert counter.total(instance="c") == 0


def test_a_router_counts_each_hubs_heat_once():
    """Regression: two shards sharing one hub share its one tracker,
    and the router merged that tracker's summary once per shard: 48
    accesses for 24 made, every hot key listed twice."""
    cluster, router, _, _ = build_shard_cluster(seed=1, shards=2, config=None)
    router.configure("heat", hot_min=2).raise_for_error()
    keys = [f"k{i}" for i in range(4)]
    for key in keys:
        router.put_object(key, b"v").raise_for_error()
    for _ in range(5):
        for key in keys:
            router.get_object(key).raise_for_error()
    summary = router.invoke("heat", "summary").state
    assert summary == cluster.obs.heat.summary()
    assert summary["accesses"]["total"] == 24
    assert summary["hot_keys"] == keys
    heat = router.health()["heat"]
    assert (heat["accesses"], heat["hot_keys"]) == (24, keys)


def test_a_key_hot_on_several_hubs_is_listed_once():
    part = HeatTracker(MetricsRegistry()).enable(hot_min=1)
    part.record("get", "k", at=0.0)
    one = part.summary()
    merged = merge_summaries([one, one])
    assert merged["hot_keys"] == ["k"]
    assert merged["accesses"]["total"] == 2
