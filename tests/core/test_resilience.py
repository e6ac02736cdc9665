"""The resilience layer: retries, breakers, degraded writes, repair."""

import json
import random

import pytest

from repro.core.errors import TierUnavailableError
from repro.core.resilience import (
    CLOSED,
    HALF_OPEN,
    MAX_REPAIR_ATTEMPTS,
    OPEN,
    CircuitBreaker,
    RepairQueue,
    backoff,
)
from repro.core.server import TieraServer
from repro.core.templates import write_through_instance
from repro.simcloud.cluster import Cluster
from repro.core.conditions import EvalScope
from repro.core.durability import fsck
from repro.core.responses import Compress
from repro.core.selectors import NamedObjects
from repro.simcloud.errors import ServiceUnavailableError, TransientServiceError
from repro.simcloud.faults import FaultProfile
from repro.simcloud.resources import RequestContext
from repro.tiers.registry import TierRegistry


class _NoJitter(random.Random):
    """Draws the jitter fraction's floor."""

    def random(self):
        return 0.0


class TestRetryPolicy:
    def test_backoff_grows_exponentially_without_jitter(self):
        rng = _NoJitter()
        assert backoff(1, rng) == pytest.approx(0.05)
        assert backoff(2, rng) == pytest.approx(0.10)
        assert backoff(3, rng) == pytest.approx(0.20)

    def test_jitter_stays_within_fraction(self):
        rng = random.Random(42)
        for _ in range(50):
            assert 0.05 <= backoff(1, rng) < 0.05 * 1.5


class TestCircuitBreaker:
    @pytest.fixture
    def breaker(self, clock):
        return CircuitBreaker("tier2", clock)

    def test_opens_after_consecutive_failures(self, breaker):
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.record_failure() is True  # third one opens it
        assert breaker.state == OPEN

    def test_success_resets_the_failure_run(self, breaker):
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED  # runs don't accumulate across wins

    def test_open_blocks_until_cooldown_then_half_opens(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        assert breaker.allow() is False        # cooling down
        clock.advance(29.0)
        assert breaker.allow() is False
        clock.advance(2.0)
        assert breaker.allow() is True         # one trial allowed
        assert breaker.state == HALF_OPEN

    def test_half_open_success_closes(self, breaker, clock):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(31.0)
        breaker.allow()
        assert breaker.record_success() is True  # closed a sick breaker
        assert breaker.state == CLOSED
        assert breaker.allow() is True

    def test_half_open_failure_reopens_and_restarts_cooldown(
        self, breaker, clock
    ):
        for _ in range(3):
            breaker.record_failure()
        clock.advance(31.0)
        breaker.allow()
        assert breaker.record_failure() is True  # trial failed: open again
        assert breaker.state == OPEN
        assert breaker.allow() is False          # fresh cooldown from now


class TestRepairQueue:
    def test_deduplicates_on_key_and_tier(self):
        queue = RepairQueue()
        assert queue.add("k", "tier2", now=1.0) is True
        assert queue.add("k", "tier2", now=2.0) is False
        assert queue.add("k", "tier3", now=3.0) is True
        assert queue.enqueued == 2
        assert queue.pending() == 2
        assert queue.pending("tier2") == 1

    def test_take_is_fifo_per_tier(self):
        queue = RepairQueue()
        queue.add("a", "tier2", now=1.0)
        queue.add("b", "tier3", now=2.0)
        queue.add("c", "tier2", now=3.0)
        assert queue.take("tier2").key == "a"
        assert queue.take("tier2").key == "c"
        assert queue.take("tier2") is None
        assert queue.pending("tier3") == 1

    def test_requeue_goes_front_of_line_and_drops_when_exhausted(self):
        queue = RepairQueue()
        queue.add("a", "tier2", now=1.0)
        queue.add("b", "tier2", now=2.0)
        task = queue.take("tier2")
        for _ in range(MAX_REPAIR_ATTEMPTS - 1):
            assert queue.requeue(task) is True  # retried first
            assert queue.take("tier2").key == "a"
        assert queue.requeue(task) is False     # the last attempt: dropped
        assert queue.dropped == 1
        assert queue.pending("tier2") == 1      # only "b" remains

    def test_discard_tier(self):
        queue = RepairQueue()
        queue.add("a", "tier2", now=1.0)
        queue.add("b", "tier3", now=2.0)
        assert queue.discard_tier("tier2") == 1
        assert queue.tiers() == ["tier3"]


# -- integration over a real two-tier instance -------------------------------


def build_stack(seed=2014, resilient=True):
    cluster = Cluster(seed=seed)
    registry = TierRegistry(cluster)
    instance = write_through_instance(registry, mem="64M", ebs="64M")
    server = TieraServer(instance)
    if resilient:
        instance.enable_resilience()
    return cluster, instance, server


def put(server, cluster, key, data):
    ctx = RequestContext(cluster.clock)
    server.put_object(key, data, ctx=ctx).raise_for_error()
    cluster.clock.run_until(ctx.time)
    return ctx


class TestRetriesAbsorbTransients:
    def test_error_burst_retried_invisibly(self):
        cluster, instance, server = build_stack()
        cluster.faults.inject(
            "kind:ebs", FaultProfile(name="burst", error_rate=0.3)
        )
        for i in range(30):
            put(server, cluster, f"k{i}", b"v" * 512)  # none may raise
        res = instance.resilience
        assert res.retry_count > 0
        assert res.breakers["tier2"].state == CLOSED

    def test_exhausted_retries_redirect_the_write(self):
        cluster, instance, server = build_stack()
        cluster.faults.inject(
            "kind:ebs", FaultProfile(name="dead", error_rate=1.0)
        )
        put(server, cluster, "k", b"v" * 512)  # client still succeeds
        res = instance.resilience
        assert res.degraded_write_count == 1
        assert res.repair_queue.pending("tier2") == 1
        # All three attempts failed before the redirect.
        assert res.retry_count == 2

    def test_replay_after_the_weather_passes(self):
        cluster, instance, server = build_stack()
        fault = cluster.faults.inject(
            "kind:ebs", FaultProfile(name="dead", error_rate=1.0)
        )
        put(server, cluster, "k", b"v" * 512)
        cluster.faults.clear(fault)
        # The next successful write against tier2 notices the pending
        # repair and schedules a background replay.
        put(server, cluster, "k2", b"w" * 512)
        cluster.clock.run_until(cluster.clock.now() + 1.0)
        res = instance.resilience
        assert res.repair_queue.pending() == 0
        assert res.replay_count == 1
        assert instance.tiers.get("tier2").service.contains("k")


def fail_once(monkeypatch, instance, tier_name, verb):
    """The tier's service raises one TransientServiceError on ``verb``."""
    service = instance.tiers.get(tier_name).service
    real = getattr(service, verb)
    failed = []

    def flaky(*args, **kwargs):
        if not failed:
            failed.append(verb)
            raise TransientServiceError(service.name, "injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(service, verb, flaky)


class TestEveryTierOpIsGuarded:
    """Regression: rewrites and DELETE sent raw tier ops, so one
    transient error failed them where a PUT retries through it."""

    def test_a_rewrite_retries_a_transient_error(self, monkeypatch):
        cluster, instance, server = build_stack()
        put(server, cluster, "k", b"compressible " * 64)
        fail_once(monkeypatch, instance, "tier2", "put")
        ctx = RequestContext(cluster.clock)
        Compress(NamedObjects("k")).execute(EvalScope(instance=instance), ctx)
        assert instance.resilience.retry_count == 1
        assert instance.meta("k").compressed
        assert server.get_object("k").ok

    def test_a_delete_retries_a_transient_error(self, monkeypatch):
        cluster, instance, server = build_stack()
        put(server, cluster, "k", b"v" * 512)
        fail_once(monkeypatch, instance, "tier2", "delete")
        assert server.delete_object("k").ok
        assert instance.resilience.retry_count == 1
        assert not instance.tiers.get("tier2").contains("k")
        assert fsck(instance)["clean"]

    def test_a_failed_delete_unlists_only_the_tiers_it_emptied(
        self, monkeypatch
    ):
        """Regression: a DELETE that failed on its second tier kept both
        tiers listed, so every later GET failed on the emptied one."""
        cluster, instance, server = build_stack(resilient=False)
        put(server, cluster, "k", b"v" * 512)
        fail_once(monkeypatch, instance, "tier2", "delete")
        result = server.delete_object("k")
        assert result.error == "TRANSIENT_ERROR"
        assert instance.meta("k").locations == {"tier2"}
        assert server.get_object("k").value == b"v" * 512
        assert fsck(instance)["clean"]


class TestBreakerRidesThroughOutage:
    def test_fail_fast_then_recover_and_replay(self):
        cluster, instance, server = build_stack()
        tier2 = instance.tiers.get("tier2")
        tier2.service.fail()

        # Three writes each burn the full 5 s timeout, opening the breaker.
        for i in range(3):
            ctx = put(server, cluster, f"k{i}", b"v" * 512)
            assert ctx.elapsed >= tier2.service.timeout
        res = instance.resilience
        assert res.breakers["tier2"].state == OPEN

        # With the breaker open, writes fail fast into the survivor.
        ctx = put(server, cluster, "k3", b"v" * 512)
        assert ctx.elapsed < 1.0
        assert res.degraded_write_count == 4
        assert res.repair_queue.pending("tier2") == 4

        # Recovery: cooldown passes, the next write is the half-open
        # trial; its success closes the breaker and replays the queue.
        tier2.service.recover()
        cluster.clock.advance(31.0)
        put(server, cluster, "k4", b"v" * 512)
        cluster.clock.run_until(cluster.clock.now() + 1.0)
        assert res.breakers["tier2"].state == CLOSED
        assert res.repair_queue.pending() == 0
        assert res.replay_count == 4
        for i in range(5):
            assert tier2.service.contains(f"k{i}")

    def test_breaker_transitions_are_audited(self):
        cluster, instance, server = build_stack()
        instance.tiers.get("tier2").service.fail()
        for i in range(3):
            put(server, cluster, f"k{i}", b"v")
        transitions = [
            record
            for record in cluster.obs.audit.tail(50)
            if record.category == "breaker"
        ]
        assert transitions
        assert transitions[-1].detail == {"from": "closed", "to": "open"}


class TestVerifiedReads:
    def test_corrupt_copy_skipped_and_read_repaired(self):
        cluster, instance, server = build_stack()
        payload = b"p" * 1024
        put(server, cluster, "k", payload)
        tier1 = instance.tiers.get("tier1")
        tier1.service._data["k"] = b"x" * 1024  # silent bit rot

        ctx = RequestContext(cluster.clock)
        # served from tier2
        assert server.get_object("k", ctx=ctx).raise_for_error().value == payload
        res = instance.resilience
        assert res.corruption_count == 1
        assert res.read_repair_count == 1
        assert tier1.service._data["k"] == payload  # repaired in place

    def test_baseline_serves_the_corruption(self):
        cluster, instance, server = build_stack(resilient=False)
        payload = b"p" * 1024
        put(server, cluster, "k", payload)
        instance.tiers.get("tier1").service._data["k"] = b"x" * 1024
        # nothing checks
        assert server.get_object("k").raise_for_error().value == b"x" * 1024


class TestFailureSurface:
    def test_tier_unavailable_chains_per_tier_causes(self):
        cluster, instance, server = build_stack()
        put(server, cluster, "k", b"v")
        instance.tiers.get("tier1").service.fail()
        instance.tiers.get("tier2").service.fail()
        with pytest.raises(TierUnavailableError) as info:
            server.get_object("k").raise_for_error()
        error = info.value
        assert [name for name, _ in error.causes] == ["tier1", "tier2"]
        assert isinstance(error.__cause__, ServiceUnavailableError)
        # Satellite: the per-tier causes say where the failure is.
        for _, cause in error.causes:
            assert cause.node
            assert cause.zone
        assert "tier1" in str(error) and "tier2" in str(error)

    def test_health_surfaces_breakers_and_location(self):
        cluster, instance, server = build_stack()
        health = server.health()
        for tier in health["tiers"]:
            assert tier["node"]
            assert tier["zone"]
            assert tier["breaker"] == "closed"
        assert health["resilience"]["retries"] == 0

        instance.tiers.get("tier2").service.fail()
        for i in range(3):
            put(server, cluster, f"k{i}", b"v")
        health = server.health()
        by_name = {t["name"]: t for t in health["tiers"]}
        assert by_name["tier2"]["breaker"] == "open"
        assert by_name["tier2"]["pending_repairs"] == 3
        assert health["status"] == "degraded"

    def test_summary_is_json_able(self):
        _, instance, _ = build_stack()
        json.dumps(instance.resilience.summary())

    def test_enable_is_idempotent(self):
        _, instance, _ = build_stack()
        layer = instance.resilience
        instance.enable_resilience()
        assert instance.resilience is layer


class TestZeroFaultInvariance:
    def test_enabling_the_layer_moves_no_timestamp(self):
        def run(resilient):
            cluster, instance, server = build_stack(
                seed=77, resilient=resilient
            )
            elapsed = []
            for i in range(40):
                ctx = put(server, cluster, f"k{i}", b"v" * 256)
                elapsed.append(ctx.elapsed)
            for i in range(40):
                ctx = RequestContext(cluster.clock)
                server.get_object(f"k{i}", ctx=ctx).raise_for_error()
                cluster.clock.run_until(ctx.time)
                elapsed.append(ctx.elapsed)
            return elapsed, instance.state_digest()

        assert run(resilient=True) == run(resilient=False)

    def test_no_rng_draws_without_faults(self):
        cluster, instance, server = build_stack()
        state = instance.resilience.rng.getstate()
        for i in range(20):
            put(server, cluster, f"k{i}", b"v" * 256)
        assert instance.resilience.rng.getstate() == state
        assert instance.resilience.summary()["retries"] == 0
