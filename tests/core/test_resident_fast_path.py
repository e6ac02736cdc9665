"""The resident fast path keeps every output: store rows, audit records,
policy partitions and capacity refusals are what they were before the
interpreter work went."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.actions import Action
from repro.core.conditions import Literal
from repro.core.errors import NoCapacityError, PolicyError
from repro.core.events import ActionEvent, ThresholdEvent, TimerEvent
from repro.core.objects import ObjectMeta
from repro.core.policy import Policy, Rule
from repro.core.responses import Copy, Response, Store
from repro.core.selectors import InsertObject, NamedObjects
from repro.core.server import TieraServer
from repro.simcloud.cluster import CROSS_ZONE_LATENCY, Cluster
from repro.simcloud.errors import CapacityExceededError
from repro.simcloud.latency import FixedLatency
from repro.simcloud.pricing import CostMeter
from repro.simcloud.resources import RequestContext
from repro.simcloud.services import SimMemcached
from repro.tiers.base import Tier
from repro.tiers.registry import TierRegistry
from tests.core.conftest import build_instance

# -- the store row -------------------------------------------------------------

texts = st.text(alphabet=st.characters(blacklist_categories=("Cs",)))
awkward = st.sampled_from(['"', "\\", 'a"b', "é", "☃", " ", "\x00", ""])
names = st.one_of(texts, awkward)
numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e22, float("inf"), float("-inf"), float("nan")]),
    st.integers(),
    st.integers(min_value=2 ** 63, max_value=10 ** 40),
)
counts = st.one_of(st.integers(), st.integers(min_value=10 ** 20, max_value=10 ** 40))


@st.composite
def metas(draw):
    return ObjectMeta(
        key=draw(names),
        size=draw(counts),
        locations=draw(st.sets(names, max_size=3)),
        dirty=draw(st.booleans()),
        tags=draw(st.sets(names, max_size=3)),
        created_at=draw(numbers),
        last_access=draw(numbers),
        last_modified=draw(numbers),
        access_count=draw(counts),
        version=draw(counts),
        checksum=draw(names),
        compressed=draw(st.booleans()),
        encrypted=draw(st.booleans()),
        alias_of=draw(st.one_of(st.none(), names)),
        refcount=draw(counts),
    )


@settings(max_examples=300, deadline=None)
@given(metas())
def test_the_row_is_json_dumps_byte_for_byte(meta):
    assert meta.to_json() == json.dumps(meta.to_doc(), sort_keys=True).encode()


# -- audit records, traced and untraced ---------------------------------------


class Nest(Response):
    """Dispatch a GET of the in-flight key from inside the rule, so the
    policy's GET rule runs nested in this one."""

    def execute(self, scope, ctx):
        key = scope.action.key
        meta = scope.instance.meta(key)
        scope.instance.control.dispatch_action(
            Action(kind="get", key=key, meta=meta), ctx
        )


def _audited_put(trace: bool):
    """One PUT on a fresh, identically seeded three-tier instance whose
    insert rule writes two tiers at once (a write_fanout scatter) and
    then nests a GET rule that copies the object to the third tier."""
    registry = TierRegistry(Cluster(seed=1234), meter=CostMeter())
    instance = build_instance(
        registry,
        [("tier1", "Memcached", 10 ** 6), ("tier2", "EBS", 10 ** 7),
         ("tier3", "S3", None)],
        rules=[
            Rule(ActionEvent("insert"), [
                Store(InsertObject(), ("tier1", "tier2")), Nest(),
            ], name="fan-out"),
            Rule(ActionEvent("get"), [
                Copy(NamedObjects("k"), "tier3", clear_dirty=False),
            ], name="nested-copy"),
        ],
    )
    server = TieraServer(instance)
    server.put_object("k", b"v" * 100, trace=trace).raise_for_error()
    return instance.obs, instance.obs.audit.records(category="rule")


def test_a_rule_audits_the_same_traced_and_untraced():
    _, untraced = _audited_put(trace=False)
    obs, traced = _audited_put(trace=True)
    assert traced == untraced
    # The nested rule closes first; the enclosing rule's count takes in
    # the two scatter branches' puts and the nested rule's get and put.
    nested, outer = untraced
    assert (nested.name, nested.tiers_touched, nested.objects_moved) == (
        "nested-copy", ("tier1", "tier3"), 2,
    )
    assert (outer.name, outer.tiers_touched, outer.objects_moved) == (
        "fan-out", ("tier1", "tier2", "tier3"), 4,
    )
    # The traced request keeps its span tree: the rule span holds the two
    # tier-op spans of the scatter and the nested rule span.
    rule = obs.tracer.last().find("rule")[0]
    assert [(s.kind, s.name) for s in rule.children] == [
        ("tier-op", "tier1.put"), ("tier-op", "tier2.put"),
        ("rule", "nested-copy"),
    ]


def test_no_tally_outlives_its_rule():
    registry = TierRegistry(Cluster(seed=1234), meter=CostMeter())
    instance = build_instance(
        registry, [("tier1", "Memcached", 10 ** 6)],
        rules=[Rule(ActionEvent("insert"), [Store(InsertObject(), "tier1")])],
    )
    ctx = RequestContext(registry.cluster.clock)
    TieraServer(instance).put_object("k", b"v", ctx=ctx).raise_for_error()
    assert ctx.tally is None and ctx.span is None


# -- the policy partition -------------------------------------------------------


def _rule(name, event):
    return Rule(event, [Store(InsertObject(), "tier1")], name=name)


def _kinds(policy):
    return (
        [r.name for r in policy.action_rules()],
        [r.name for r in policy.timer_rules()],
        [r.name for r in policy.threshold_rules()],
    )


def test_the_partition_follows_every_change():
    threshold = ThresholdEvent(Literal(True))
    policy = Policy([_rule("a", ActionEvent("insert")), _rule("t", TimerEvent(5))])
    assert _kinds(policy) == (["a"], ["t"], [])
    policy.add(_rule("th", threshold))
    assert _kinds(policy) == (["a"], ["t"], ["th"])
    policy.replace("a", _rule("t2", TimerEvent(9)))
    assert _kinds(policy) == ([], ["t2", "t"], ["th"])
    policy.remove("t")
    assert _kinds(policy) == ([], ["t2"], ["th"])
    policy.replace_all([_rule("b", ActionEvent("get")), _rule("c", ActionEvent("delete"))])
    assert _kinds(policy) == (["b", "c"], [], [])


def test_a_refused_change_keeps_the_partition():
    policy = Policy([_rule("a", ActionEvent("insert"))])
    with pytest.raises(PolicyError):
        policy.add(_rule("a", TimerEvent(5)))
    assert _kinds(policy) == (["a"], [], [])


# -- capacity refusals ------------------------------------------------------------


def _remote_tier(cluster, size):
    """A ``size``-byte memcached tier in another zone than its server."""
    service = SimMemcached(
        name="m", node=cluster.add_node("remote", zone="us-east-1b"),
        clock=cluster.clock, latency=FixedLatency(0.001), rng=cluster.rng,
        capacity=size,
    )
    return Tier("tier1", service, server_node=cluster.add_node("server", zone="us-east-1a"))


def test_a_direct_tier_put_refuses_before_the_cross_zone_wait(cluster):
    tier = _remote_tier(cluster, 100)
    ctx = RequestContext(cluster.clock)
    tier.put("k", b"x" * 60, ctx)
    assert ctx.elapsed == pytest.approx(0.001 + CROSS_ZONE_LATENCY)
    refused = RequestContext(cluster.clock)
    with pytest.raises(CapacityExceededError) as caught:
        tier.put("j", b"x" * 41, refused)
    assert (caught.value.service, caught.value.needed, caught.value.available) == (
        "tier1", 41, 40,
    )
    assert refused.elapsed == 0
    # An overwrite only needs room for its growth.
    tier.put("k", b"y" * 100, RequestContext(cluster.clock))
    assert tier.used == 100


def test_a_service_put_refuses_an_overwrite_by_its_growth(cluster):
    service = _remote_tier(cluster, 100).service
    service.put("k", b"x" * 60, RequestContext(cluster.clock))
    service.put("j", b"x" * 30, RequestContext(cluster.clock))
    refused = RequestContext(cluster.clock)
    with pytest.raises(CapacityExceededError) as caught:
        service.put("k", b"y" * 71, refused)
    assert (caught.value.needed, caught.value.available) == (11, 10)
    assert refused.elapsed == 0
    service.put("k", b"y" * 70, RequestContext(cluster.clock))
    assert service.used == 100


def test_write_to_tier_refuses_with_no_capacity_and_no_time(registry):
    instance = build_instance(registry, [("tier1", "Memcached", 100)])
    instance.enable_durability()
    instance.create_object("k", 101)
    begun = instance.obs.metrics.counter("tiera_journal_records_total")
    before = begun.total()
    ctx = RequestContext(registry.cluster.clock)
    with pytest.raises(NoCapacityError) as caught:
        instance.write_to_tier("k", b"x" * 101, "tier1", ctx)
    assert caught.value.code == "NO_CAPACITY"
    assert ctx.elapsed == 0
    # Refused before the journal bracket: no intent was begun or aborted.
    assert begun.total() == before
    assert len(instance.durability.journal) == 0
    assert instance.tiers.get("tier1").used == 0


def test_a_refused_put_answers_no_capacity_in_its_envelope(registry):
    instance = build_instance(registry, [("tier1", "Memcached", 100)])
    result = TieraServer(instance).put_object("k", b"x" * 101)
    assert (result.ok, result.error, result.latency) == (False, "NO_CAPACITY", 0.0)
    assert not instance.has_object("k")
