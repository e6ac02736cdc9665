"""The deterministic fault-injection engine (repro.simcloud.faults)."""

import json

import pytest

from repro.simcloud.cluster import Cluster
from repro.simcloud.errors import TransientServiceError
from repro.simcloud.faults import (
    SCENARIOS,
    ChaosScenario,
    FaultEvent,
    FaultProfile,
)
from repro.simcloud.latency import FixedLatency
from repro.simcloud.resources import RequestContext
from repro.simcloud.services import SimBlockVolume, SimMemcached


@pytest.fixture
def env(cluster):
    node = cluster.add_node("svc-node", zone="us-east-1a")
    return cluster, node


def make(cls, env, name="svc", **kwargs):
    cluster, node = env
    kwargs.setdefault("latency", FixedLatency(0.001))
    kwargs.setdefault("faults", cluster.faults)
    return cls(
        name=name, node=node, clock=cluster.clock, rng=cluster.rng, **kwargs
    )


def ctx_for(env):
    return RequestContext(env[0].clock)


class TestInertWhenIdle:
    def test_no_active_faults_draws_no_randomness(self, env):
        cluster, _ = env
        svc = make(SimMemcached, env)
        state = cluster.faults.rng.getstate()
        for i in range(10):
            svc.put(f"k{i}", b"v" * 64, ctx_for(env))
            svc.get(f"k{i}", ctx_for(env))
        assert cluster.faults.rng.getstate() == state
        assert not cluster.faults.active
        assert cluster.faults.counts == {}

    def test_wired_injector_matches_unwired_timing(self, env):
        cluster, _ = env
        wired = make(SimMemcached, env, name="wired")
        bare = make(SimMemcached, env, name="bare", faults=None)
        for svc in (wired, bare):
            ctx = ctx_for(env)
            svc.put("k", b"v" * 128, ctx)
            svc.get("k", ctx)
            svc._last_elapsed = ctx.elapsed
        assert wired._last_elapsed == bare._last_elapsed


class TestTargeting:
    def test_match_by_service_node_zone_kind_and_star(self, env):
        cluster, _ = env
        svc = make(SimBlockVolume, env, name="vol-a")
        boom = FaultProfile(name="boom", error_rate=1.0)
        for target in (
            "service:vol-a",
            "node:svc-node",
            "zone:us-east-1a",
            "kind:ebs",
            "*",
        ):
            fault = cluster.faults.inject(target, boom)
            with pytest.raises(TransientServiceError):
                svc.put("k", b"v", ctx_for(env))
            cluster.faults.clear(fault)

    def test_nonmatching_target_leaves_service_alone(self, env):
        cluster, _ = env
        svc = make(SimMemcached, env)
        fault = cluster.faults.inject(
            "kind:ebs", FaultProfile(name="boom", error_rate=1.0)
        )
        svc.put("k", b"v", ctx_for(env))  # memcached: untouched
        cluster.faults.clear(fault)

    def test_bad_target_rejected_eagerly(self, env):
        cluster, _ = env
        with pytest.raises(ValueError):
            cluster.faults.inject("bogus:x", FaultProfile(error_rate=1.0))


class TestProfiles:
    def test_transient_error_charges_configured_latency(self, env):
        cluster, _ = env
        svc = make(SimMemcached, env)
        cluster.faults.inject(
            "*", FaultProfile(name="e", error_rate=1.0, error_latency=0.25)
        )
        ctx = ctx_for(env)
        with pytest.raises(TransientServiceError) as info:
            svc.put("k", b"v", ctx)
        assert ctx.elapsed == pytest.approx(0.25)
        # The error identifies where it happened (node + zone).
        assert info.value.node == "svc-node"
        assert info.value.zone == "us-east-1a"
        assert cluster.faults.counts["transient-error"] == 1

    def test_transient_error_defaults_to_service_time(self, env):
        cluster, _ = env
        svc = make(SimMemcached, env)
        cluster.faults.inject("*", FaultProfile(name="e", error_rate=1.0))
        ctx = ctx_for(env)
        with pytest.raises(TransientServiceError):
            svc.put("k", b"v", ctx)
        assert ctx.elapsed == pytest.approx(0.001)  # ran, then errored

    def test_latency_spike_inflates_service_time(self, env):
        cluster, _ = env
        svc = make(SimMemcached, env)
        cluster.faults.inject(
            "*", FaultProfile(name="slow", latency_multiplier=10.0)
        )
        ctx = ctx_for(env)
        svc.put("k", b"v", ctx)
        assert ctx.elapsed == pytest.approx(0.010)
        assert cluster.faults.counts["latency"] == 1

    def test_gray_ramp_grows_with_active_minutes(self, env):
        cluster, _ = env
        svc = make(SimMemcached, env)
        cluster.faults.inject(
            "*", FaultProfile(name="gray", gray_ramp_per_minute=4.0)
        )
        ctx = ctx_for(env)
        svc.put("k", b"v", ctx)
        assert ctx.elapsed == pytest.approx(0.001)  # minute 0: no ramp yet
        cluster.clock.advance(60.0)
        ctx = ctx_for(env)
        svc.get("k", ctx)
        assert ctx.elapsed == pytest.approx(0.005)  # 1 + 4×1 minutes

    def test_flapping_alternates_up_and_down(self, env):
        cluster, _ = env
        svc = make(SimMemcached, env)
        cluster.faults.inject(
            "*", FaultProfile(name="flap", flap_period=20.0, flap_duty=0.5)
        )
        svc.put("k", b"v", ctx_for(env))  # phase 0: up
        cluster.clock.advance(10.0)       # phase 0.5: down
        ctx = ctx_for(env)
        with pytest.raises(TransientServiceError):
            svc.get("k", ctx)
        assert ctx.elapsed == pytest.approx(svc.timeout)  # burned like fail()
        cluster.clock.advance(10.0)       # next period: up again
        assert svc.get("k", ctx_for(env)) == b"v"

    def test_bitrot_is_silent_and_persistent(self, env):
        cluster, _ = env
        svc = make(SimMemcached, env)
        svc.put("k", b"\x00" * 32, ctx_for(env))
        fault = cluster.faults.inject(
            "*", FaultProfile(name="rot", corrupt_rate=1.0)
        )
        first = svc.get("k", ctx_for(env))  # succeeds, but one bit flipped
        assert first != b"\x00" * 32
        cluster.faults.clear(fault)
        # The flipped bit stays: corruption is in the stored copy.
        assert svc.get("k", ctx_for(env)) == first
        assert cluster.faults.counts["corruption"] == 1


class TestScheduling:
    def test_inject_auto_clears_after_duration(self, env):
        cluster, _ = env
        svc = make(SimMemcached, env)
        cluster.faults.inject(
            "*", FaultProfile(name="e", error_rate=1.0), duration=10.0
        )
        assert cluster.faults.active
        cluster.clock.advance(11.0)
        assert not cluster.faults.active
        svc.put("k", b"v", ctx_for(env))  # back to normal

    def test_scenario_schedules_apply_and_clear(self, env):
        cluster, _ = env
        scenario = ChaosScenario(
            name="window",
            events=(
                FaultEvent(
                    at=60.0,
                    duration=120.0,
                    target="*",
                    profile=FaultProfile(name="e", error_rate=1.0),
                ),
            ),
        )
        cluster.chaos(scenario, at=0.0)
        assert not cluster.faults.active
        cluster.clock.run_until(61.0)
        assert cluster.faults.active
        cluster.clock.run_until(181.0)
        assert not cluster.faults.active
        schedule = cluster.faults.report()["schedule"]
        assert [(e["event"], e["time"]) for e in schedule] == [
            ("apply", 60.0),
            ("clear", 180.0),
        ]
        assert all(e["scenario"] == "window" for e in schedule)

    def test_scenario_library_shapes(self):
        assert sorted(SCENARIOS) == [
            "bitrot",
            "ebs-outage-2011",
            "flapping",
            "gray-failure",
            "latency-spike",
            "shard-loss",
            "transient-errors",
        ]
        for name, scenario in SCENARIOS.items():
            description = scenario.describe()
            assert description["name"] == name
            assert description["events"]
            json.dumps(description)  # JSON-able as documented


class TestDeterminism:
    @staticmethod
    def _run(seed):
        cluster = Cluster(seed=seed)
        node = cluster.add_node("n")
        svc = SimBlockVolume(
            name="vol",
            node=node,
            clock=cluster.clock,
            rng=cluster.rng,
            latency=FixedLatency(0.001),
            faults=cluster.faults,
        )
        cluster.chaos(SCENARIOS["transient-errors"], at=0.0)
        cluster.clock.run_until(61.0)  # enter the fault window
        outcomes = []
        for i in range(200):
            ctx = RequestContext(cluster.clock)
            try:
                svc.put(f"k{i}", b"v" * 64, ctx)
                outcomes.append("ok")
            except TransientServiceError:
                outcomes.append("err")
            cluster.clock.run_until(ctx.time)
        return outcomes, json.dumps(cluster.faults.report(), sort_keys=True)

    def test_same_seed_same_fault_sequence(self):
        assert self._run(7) == self._run(7)

    def test_different_seed_different_draws(self):
        outcomes_a, _ = self._run(7)
        outcomes_b, _ = self._run(8)
        assert outcomes_a != outcomes_b

    def test_faults_injected_counter_lands_in_obs(self):
        cluster = Cluster(seed=3)
        node = cluster.add_node("n")
        svc = SimMemcached(
            name="mc",
            node=node,
            clock=cluster.clock,
            rng=cluster.rng,
            latency=FixedLatency(0.001),
            faults=cluster.faults,
        )
        cluster.faults.inject("*", FaultProfile(name="e", error_rate=1.0))
        with pytest.raises(TransientServiceError):
            svc.put("k", b"v", RequestContext(cluster.clock))
        rendered = "\n".join(
            line for line in _render(cluster) if "faults_injected" in line
        )
        assert "tiera_faults_injected_total" in rendered
        assert 'kind="transient-error"' in rendered


def _render(cluster):
    from repro.obs.export import render_prometheus

    return render_prometheus(cluster.obs.metrics).splitlines()


class TestCrashPointInjector:
    def _injector(self, **kwargs):
        from repro.simcloud.faults import CrashPointInjector

        return CrashPointInjector(**kwargs)

    def test_unarmed_records_schedule_without_firing(self):
        injector = self._injector()
        for point in ("write.begin", "write.data", "write.begin"):
            injector.reach(point)
        assert injector.schedule == [
            (0, "write.begin"), (1, "write.data"), (2, "write.begin"),
        ]
        assert injector.hits == {"write.begin": 2, "write.data": 1}
        assert injector.fired is None

    def test_arm_index_fires_exactly_once_at_that_visit(self):
        from repro.simcloud.errors import ProcessCrash

        injector = self._injector().arm_index(1)
        injector.reach("a")
        with pytest.raises(ProcessCrash):
            injector.reach("b")
        assert injector.fired == ("b", 0)

    def test_arm_point_occurrence_counts_per_name(self):
        from repro.simcloud.errors import ProcessCrash

        injector = self._injector().arm("write.data", 1)
        injector.reach("write.data")      # occurrence 0: survives
        injector.reach("write.begin")
        with pytest.raises(ProcessCrash) as excinfo:
            injector.reach("write.data")  # occurrence 1: dies
        assert injector.fired == ("write.data", 1)
        assert "write.data" in str(excinfo.value)

    def test_on_hit_observes_every_visit_before_any_crash(self):
        from repro.simcloud.errors import ProcessCrash

        seen = []
        injector = self._injector(on_hit=lambda i, p: seen.append((i, p)))
        injector.arm_index(1)
        injector.reach("a")
        with pytest.raises(ProcessCrash):
            injector.reach("b")
        assert seen == [(0, "a"), (1, "b")]

    def test_process_crash_is_not_a_catchable_service_error(self):
        from repro.simcloud.errors import ProcessCrash, SimCloudError

        # Deliberately a BaseException: no `except Exception` on the
        # data path may absorb a simulated process death.
        assert not issubclass(ProcessCrash, Exception)
        assert not issubclass(ProcessCrash, SimCloudError)

    def test_crash_point_names_are_registered(self):
        from repro.simcloud.faults import CRASH_POINTS

        assert "write.journaled" in CRASH_POINTS
        assert "delete.commit" in CRASH_POINTS
        assert len(CRASH_POINTS) == len(set(CRASH_POINTS))
        # The journaled primitives' rows are derived from the intent
        # table; names and order are what sweeps and docs were built on.
        assert CRASH_POINTS == (
            "write.begin", "write.journaled", "write.data", "write.meta",
            "write.commit",
            "remove.begin", "remove.journaled", "remove.data", "remove.commit",
            "rewrite.begin", "rewrite.journaled", "rewrite.data",
            "rewrite.commit",
            "delete.begin", "delete.journaled", "delete.data", "delete.commit",
            "checkpoint.begin", "checkpoint.done",
            "backup.snapshot.begin", "backup.snapshot.temp",
            "backup.snapshot.done",
        )

    def test_cluster_crash_point_names_are_registered(self):
        from repro.simcloud.faults import CLUSTER_CRASH_POINTS

        # Derived from the migration intent table, in pass order: the
        # membership bracket opens, a key moves, the bracket closes.
        assert CLUSTER_CRASH_POINTS == (
            "cluster.migrate.begin",
            "cluster.move.intent", "cluster.move.copied", "cluster.move.done",
            "cluster.migrate.done",
        )
