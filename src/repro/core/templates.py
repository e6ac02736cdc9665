"""Canned Tiera instances from the paper.

Every specification the paper prints (Figures 3, 4, 5, 6) and every
instance its evaluation deploys (§4.1's MemcachedReplicated /
MemcachedEBS / MemcachedS3, Table 2's TI:1-3, Table 3's High/Low
Durability, Figure 14's replicated volumes, Figure 17's write-through
and its Ephemeral+S3 replacement) is constructed here as a builder
function over a :class:`~repro.tiers.registry.TierRegistry`.

The same instances can be built from spec-file text via ``repro.spec``;
tests assert the two paths agree.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.conditions import (
    And,
    AttrRef,
    Comparison,
    Literal,
    Not,
    TierDirtyBytes,
)
from repro.core.events import ActionEvent, ThresholdEvent, TimerEvent
from repro.core.instance import DROP, TieraInstance
from repro.core.policy import Policy, Rule
from repro.core.responses import Copy, Grow, Move, Retrieve, SetAttr, Store, StoreOnce
from repro.core.selectors import InsertObject, ObjectsWhere
from repro.core.units import parse_size
from repro.tiers.registry import TierRegistry

TierSpec = Tuple[str, str, Optional[str], str]  # (tier, product, size, zone)


def _build(
    registry: TierRegistry,
    name: str,
    tier_specs: Sequence[TierSpec],
    rules: Sequence[Rule],
    eviction_chain: Optional[Dict[str, str]] = None,
) -> TieraInstance:
    tiers = [
        registry.create(
            product,
            tier_name=tier_name,
            size=parse_size(size) if size is not None else None,
            zone=zone,
        )
        for tier_name, product, size, zone in tier_specs
    ]
    instance = TieraInstance(
        name=name,
        tiers=tiers,
        policy=Policy(list(rules)),
        clock=registry.cluster.clock,
    )
    if eviction_chain:
        instance.eviction_chain.update(eviction_chain)
    return instance


def dirty_in(tier: str):
    """``object.location == tierX && object.dirty == true`` (Figure 3)."""
    return ObjectsWhere(
        And(
            Comparison("==", AttrRef(("object", "location")), Literal(tier)),
            Comparison("==", AttrRef(("object", "dirty")), Literal(True)),
        )
    )


def _in_tier(tier: str):
    return ObjectsWhere(
        Comparison("==", AttrRef(("object", "location")), Literal(tier))
    )


def low_latency_instance(
    registry: TierRegistry,
    t: float = 30.0,
    mem: str = "5G",
    ebs: str = "5G",
) -> TieraInstance:
    """Figure 3's ``LowLatencyInstance``: store into Memcached on insert,
    write dirty data back to EBS every ``t`` seconds."""
    rules = [
        Rule(
            ActionEvent("insert"),
            [
                SetAttr(("insert", "object", "dirty"), True),
                Store(InsertObject(), "tier1"),
            ],
            name="place-in-memcached",
        ),
        Rule(
            TimerEvent(t),
            [Copy(dirty_in("tier1"), "tier2")],
            name="write-back",
        ),
    ]
    return _build(
        registry,
        "LowLatencyInstance",
        [("tier1", "Memcached", mem, "us-east-1a"), ("tier2", "EBS", ebs, "us-east-1a")],
        rules,
    )


def persistent_instance(
    registry: TierRegistry,
    mem: str = "200M",
    ebs: str = "1G",
    s3: str = "10G",
    backup_bandwidth: str = "40KB/s",
    backup_threshold: float = 0.50,
) -> TieraInstance:
    """Figure 4's ``PersistentInstance``: write-through Memcached→EBS plus
    a bandwidth-capped backup of EBS contents to S3 at 50 % fill."""
    rules = [
        Rule(
            ActionEvent("insert", tier="tier1"),
            [Copy(InsertObject(), "tier2")],
            name="write-through",
        ),
        Rule(
            ThresholdEvent(
                Comparison(
                    ">=", AttrRef(("tier2", "filled")), Literal(backup_threshold)
                )
            ),
            [Copy(_in_tier("tier2"), "tier3", bandwidth=backup_bandwidth)],
            background=True,
            name="backup-to-s3",
        ),
    ]
    return _build(
        registry,
        "PersistentInstance",
        [
            ("tier1", "Memcached", mem, "us-east-1a"),
            ("tier2", "EBS", ebs, "us-east-1a"),
            ("tier3", "S3", s3, "us-east-1a"),
        ],
        rules,
        eviction_chain={"tier1": "tier2"},
    )


def growing_instance(
    registry: TierRegistry,
    t: float = 60.0,
    mem: str = "200M",
    ebs: str = "2G",
    grow_threshold: float = 0.75,
    grow_percent: float = 100.0,
    provisioning_delay: Optional[float] = None,
) -> TieraInstance:
    """Figure 6's ``GrowingInstance``: place in Memcached, double the tier
    when it reaches 75 % full, write back to EBS on a timer."""
    rules = [
        Rule(
            ActionEvent("insert"),
            [Store(InsertObject(), "tier1")],
            name="place-in-memcached",
        ),
        Rule(
            ThresholdEvent(
                Comparison(
                    ">=", AttrRef(("tier1", "filled")), Literal(grow_threshold)
                )
            ),
            [Grow("tier1", grow_percent, provisioning_delay=provisioning_delay)],
            name="grow-memcached",
        ),
        Rule(
            TimerEvent(t),
            [Move(dirty_in("tier1"), "tier2")],
            name="write-back-move",
        ),
    ]
    return _build(
        registry,
        "GrowingInstance",
        [("tier1", "Memcached", mem, "us-east-1a"), ("tier2", "EBS", ebs, "us-east-1a")],
        rules,
        eviction_chain={"tier1": "tier2"},
    )


def memcached_replicated_instance(
    registry: TierRegistry, mem: str = "2G"
) -> TieraInstance:
    """§4.1.1's ``MemcachedReplicated``: two Memcached tiers in different
    availability zones; a PUT writes both before acknowledging; GETs are
    served from the same-AZ tier (first declared)."""
    rules = [
        Rule(
            ActionEvent("insert"),
            [Store(InsertObject(), ("tier1", "tier2"))],
            name="replicate",
        ),
    ]
    return _build(
        registry,
        "MemcachedReplicated",
        [
            ("tier1", "Memcached", mem, "us-east-1a"),
            ("tier2", "Memcached", mem, "us-east-1b"),
        ],
        rules,
    )


def memcached_ebs_instance(
    registry: TierRegistry, mem: str = "2G", ebs: str = "8G"
) -> TieraInstance:
    """§4.1.1's ``MemcachedEBS``: write to both Memcached and EBS on PUT,
    serve GETs from Memcached."""
    rules = [
        Rule(
            ActionEvent("insert"),
            [Store(InsertObject(), ("tier1", "tier2"))],
            name="write-through",
        ),
    ]
    return _build(
        registry,
        "MemcachedEBS",
        [("tier1", "Memcached", mem, "us-east-1a"), ("tier2", "EBS", ebs, "us-east-1a")],
        rules,
    )


def memcached_s3_instance(
    registry: TierRegistry, mem: str = "500M"
) -> TieraInstance:
    """§4.1.1 cost optimisation: a small Memcached LRU cache over S3.

    Writes go through to S3 (durability); the cache holds the hot set
    and GET misses promote into it, evicting LRU entries (which is safe
    to do by dropping — everything is in S3)."""
    not_cached = Not(
        Comparison("==", AttrRef(("insert", "object", "location")), Literal("tier1"))
    )
    rules = [
        Rule(
            ActionEvent("insert"),
            [Store(InsertObject(), "tier1"), Copy(InsertObject(), "tier2")],
            name="cache-and-persist",
        ),
        Rule(
            ActionEvent("get", guard=not_cached),
            [Retrieve(InsertObject(), promote_to="tier1")],
            name="promote-on-miss",
        ),
    ]
    return _build(
        registry,
        "MemcachedS3",
        [("tier1", "Memcached", mem, "us-east-1a"), ("tier2", "S3", None, "us-east-1a")],
        rules,
        eviction_chain={"tier1": DROP},
    )


def lru_tiered_instance(
    registry: TierRegistry,
    name: str,
    mem: str,
    ebs: str,
    s3: str = "10G",
) -> TieraInstance:
    """Table 2's TI:n — exclusive LRU tiering across Memcached/EBS/S3.

    "Memcached tier is used to store the most recently accessed data,
    EBS is used to hold objects evicted from the Memcached tier, and
    similarly S3 holds objects evicted from EBS.  The data is stored in
    an exclusive manner across the tiers."  GETs of objects outside
    Memcached promote them back (most recently *accessed*, not merely
    most recently written), pushing colder objects down the chain; the
    promotion (and its demotion cascade) runs in the background so the
    client pays only its own read."""
    not_cached = Not(
        Comparison("==", AttrRef(("insert", "object", "location")), Literal("tier1"))
    )
    rules = [
        Rule(
            ActionEvent("insert"),
            [Store(InsertObject(), "tier1")],
            name="place-in-memcached",
        ),
        Rule(
            ActionEvent("get", guard=not_cached),
            [Retrieve(InsertObject(), promote_to="tier1", exclusive=True)],
            background=True,
            name="promote-on-access",
        ),
    ]
    return _build(
        registry,
        name,
        [
            ("tier1", "Memcached", mem, "us-east-1a"),
            ("tier2", "EBS", ebs, "us-east-1a"),
            ("tier3", "S3", s3, "us-east-1a"),
        ],
        rules,
        eviction_chain={"tier1": "tier2", "tier2": "tier3"},
    )


def high_durability_instance(
    registry: TierRegistry,
    mem: str = "100M",
    ebs: str = "100M",
    push_interval: float = 120.0,
) -> TieraInstance:
    """Table 3 High Durability: keep data in Memcached for reads, back up
    to EBS immediately, and push to S3 every 2 minutes."""
    rules = [
        Rule(
            ActionEvent("insert"),
            [
                SetAttr(("insert", "object", "dirty"), True),
                Store(InsertObject(), "tier1"),
                Copy(InsertObject(), "tier2", clear_dirty=False),
            ],
            name="write-through-ebs",
        ),
        Rule(
            TimerEvent(push_interval),
            [Copy(dirty_in("tier1"), "tier3")],
            name="push-to-s3",
        ),
    ]
    return _build(
        registry,
        "HighDurability",
        [
            ("tier1", "Memcached", mem, "us-east-1a"),
            ("tier2", "EBS", ebs, "us-east-1a"),
            ("tier3", "S3", None, "us-east-1a"),
        ],
        rules,
    )


def low_durability_instance(
    registry: TierRegistry,
    mem: str = "100M",
    push_interval: float = 120.0,
) -> TieraInstance:
    """Table 3 Low Durability: write only to Memcached; back up to S3
    every 2 minutes.  Worst case loses the last 2-minute window."""
    rules = [
        Rule(
            ActionEvent("insert"),
            [
                SetAttr(("insert", "object", "dirty"), True),
                Store(InsertObject(), "tier1"),
            ],
            name="place-in-memcached",
        ),
        Rule(
            TimerEvent(push_interval),
            [Copy(dirty_in("tier1"), "tier2")],
            name="push-to-s3",
        ),
    ]
    return _build(
        registry,
        "LowDurability",
        [
            ("tier1", "Memcached", mem, "us-east-1a"),
            ("tier2", "S3", None, "us-east-1a"),
        ],
        rules,
    )


def replicated_volumes_instance(
    registry: TierRegistry,
    size: str = "1G",
    trigger_bytes: str = "50M",
    bandwidth: Optional[str] = None,
) -> TieraInstance:
    """Figure 14's two-EBS-volume eventual-consistency instance: write to
    volume 1; once 50 MB of new data has accumulated, replicate it to
    volume 2 in the background, optionally bandwidth-capped."""
    rules = [
        Rule(
            ActionEvent("insert"),
            [
                SetAttr(("insert", "object", "dirty"), True),
                Store(InsertObject(), "tier1"),
            ],
            name="write-primary",
        ),
        Rule(
            ThresholdEvent(
                Comparison(
                    ">=",
                    TierDirtyBytes("tier1"),
                    Literal(parse_size(trigger_bytes)),
                ),
                background=True,
            ),
            [Copy(dirty_in("tier1"), "tier2", bandwidth=bandwidth)],
            name="replicate",
        ),
    ]
    return _build(
        registry,
        "ReplicatedVolumes",
        [("tier1", "EBS", size, "us-east-1a"), ("tier2", "EBS", size, "us-east-1a")],
        rules,
    )


def dedup_instance(
    registry: TierRegistry, mem: str = "200M"
) -> TieraInstance:
    """Figure 12's storeOnce instance: S3 persistent store, Memcached
    cache for recently accessed data (20 % / 80 % split in the paper),
    de-duplicating on PUT."""
    not_cached = Not(
        Comparison("==", AttrRef(("insert", "object", "location")), Literal("tier1"))
    )
    rules = [
        Rule(
            ActionEvent("insert"),
            [StoreOnce(InsertObject(), "tier2")],
            name="store-once",
        ),
        Rule(
            ActionEvent("get", guard=not_cached),
            [Retrieve(InsertObject(), promote_to="tier1")],
            name="promote-on-miss",
        ),
    ]
    return _build(
        registry,
        "DedupInstance",
        [
            ("tier1", "Memcached", mem, "us-east-1a"),
            ("tier2", "S3", None, "us-east-1a"),
        ],
        rules,
        eviction_chain={"tier1": DROP},
    )


def write_through_instance(
    registry: TierRegistry, mem: str = "1G", ebs: str = "1G"
) -> TieraInstance:
    """The Figure 17 starting point (and Figure 18's policy): data is
    written to both Memcached and EBS before acknowledging."""
    rules = [
        Rule(
            ActionEvent("insert"),
            [Store(InsertObject(), ("tier1", "tier2"))],
            name="write-through",
        ),
    ]
    return _build(
        registry,
        "WriteThrough",
        [("tier1", "Memcached", mem, "us-east-1a"), ("tier2", "EBS", ebs, "us-east-1a")],
        rules,
    )


def ephemeral_s3_reconfiguration(
    registry: TierRegistry,
    ephemeral: str = "1G",
    backup_interval: float = 120.0,
) -> Tuple[List, List[Rule]]:
    """The Figure 17 repair kit: two new tiers (Ephemeral + S3) and two
    new rules (store in Ephemeral; back it up to S3 every 2 minutes),
    ready to pass to :meth:`TieraInstance.reconfigure`."""
    tiers = [
        registry.create("EphemeralStorage", tier_name="tier3", size=parse_size(ephemeral)),
        registry.create("S3", tier_name="tier4", size=None),
    ]
    rules = [
        Rule(
            ActionEvent("insert"),
            [
                SetAttr(("insert", "object", "dirty"), True),
                Store(InsertObject(), "tier3"),
            ],
            name="store-ephemeral",
        ),
        Rule(
            TimerEvent(backup_interval),
            [Copy(dirty_in("tier3"), "tier4")],
            name="backup-ephemeral-to-s3",
        ),
    ]
    return tiers, rules
