"""Property-based invariants over the whole middleware stack.

Random operation sequences against paper-template instances must leave
the system self-consistent: metadata locations agree with tier
contents, tier usage accounting agrees with stored bytes, every live
object is readable, and the dedup index never dangles.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.server import TieraServer
from repro.core.templates import (
    dedup_instance,
    low_latency_instance,
    memcached_ebs_instance,
)
from repro.simcloud.cluster import Cluster
from repro.tiers.registry import TierRegistry

# op: (kind, key_id, payload_id, advance_seconds)
OPS = st.lists(
    st.tuples(
        st.sampled_from(["put", "get", "delete", "advance"]),
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=40),
    ),
    max_size=50,
)


def payload(payload_id: int) -> bytes:
    return bytes([payload_id]) * (256 + payload_id * 64)


def run_ops(server, cluster, ops, same_bytes=True):
    """Apply ``ops``; returns each live key's last written payload.
    Every GET on the way must return exactly that (``same_bytes=False``:
    must return bytes — only for the instance with a live stale-read
    defect, whose byte check is its own strict-xfail test)."""
    live = {}
    for kind, key_id, payload_id, seconds in ops:
        key = f"k{key_id}"
        if kind == "put":
            server.put_object(key, payload(payload_id)).raise_for_error()
            live[key] = payload(payload_id)
        elif kind == "get":
            if key in live:
                value = server.get_object(key).raise_for_error().value
                assert value == live[key] if same_bytes else isinstance(value, bytes)
        elif kind == "delete":
            if key in live:
                server.delete_object(key).raise_for_error()
                del live[key]
        else:
            cluster.clock.advance(seconds)
    return live


def check_invariants(instance, server, live, same_bytes=True):
    # 1. Every live object reads back as its last PUT; dead keys are gone.
    for key, expected in live.items():
        value = server.get_object(key).raise_for_error().value
        assert value == expected if same_bytes else isinstance(value, bytes)
    assert set(server.keys()) == set(live)
    # 2. Metadata locations agree with tier contents (for non-aliases).
    for meta in instance.iter_meta():
        physical = instance.resolve_alias(meta.key)
        if physical != meta.key:
            continue
        for tier_name in meta.locations:
            assert instance.tiers.get(tier_name).contains(meta.key), (
                f"{meta.key} claimed in {tier_name} but absent"
            )
    # 3. Tier byte accounting matches what is actually stored.
    for tier in instance.tiers:
        stored = sum(tier.service.size_of(k) for k in tier.keys())
        assert tier.used == stored
        if tier.capacity is not None:
            assert tier.used <= tier.capacity
    # 4. The dedup index points at live canonical objects only.
    for checksum, key in list(instance._dedup.items()):
        assert instance.has_object(key)
        assert instance.meta(key).alias_of is None


class TestPolicyEngineInvariants:
    @given(ops=OPS)
    @settings(max_examples=30, deadline=None)
    def test_write_back_instance(self, ops):
        cluster = Cluster(seed=1)
        instance = low_latency_instance(
            TierRegistry(cluster), t=15.0, mem="64K", ebs="1M"
        )
        server = TieraServer(instance)
        live = run_ops(server, cluster, ops)
        check_invariants(instance, server, live)

    @given(ops=OPS)
    @settings(max_examples=30, deadline=None)
    def test_write_through_instance(self, ops):
        cluster = Cluster(seed=2)
        instance = memcached_ebs_instance(
            TierRegistry(cluster), mem="64K", ebs="1M"
        )
        server = TieraServer(instance)
        live = run_ops(server, cluster, ops)
        check_invariants(instance, server, live)

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP defect (a), stale overwrite: the GET promotes k0 to "
               "tier1, the second PUT rewrites tier2 only, and reads keep "
               "serving tier1's old bytes",
    )
    @given(ops=OPS)
    @example(ops=[("put", 0, 0, 1), ("get", 0, 0, 1), ("put", 0, 1, 1)])
    @settings(max_examples=30, deadline=None)
    def test_dedup_instance_reads_back_the_last_put(self, ops):
        cluster = Cluster(seed=3)
        instance = dedup_instance(TierRegistry(cluster), mem="32K")
        server = TieraServer(instance)
        live = run_ops(server, cluster, ops)
        check_invariants(instance, server, live)

    @given(ops=OPS)
    @settings(max_examples=30, deadline=None)
    def test_dedup_instance(self, ops):
        cluster = Cluster(seed=3)
        instance = dedup_instance(TierRegistry(cluster), mem="32K")
        server = TieraServer(instance)
        live = run_ops(server, cluster, ops, same_bytes=False)
        check_invariants(instance, server, live, same_bytes=False)
        # Extra: refcounts equal the number of aliases pointing in.
        for meta in instance.iter_meta():
            if meta.alias_of is None and meta.refcount:
                aliases = [
                    m for m in instance.iter_meta() if m.alias_of == meta.key
                ]
                assert len(aliases) == meta.refcount
