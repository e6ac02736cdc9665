"""The heat-driven adaptive placement engine (ROADMAP item 1, acting half).

Covers the planner's determinism and scoring asymmetries (sketch-gated
admission vs EWMA-driven eviction), the damping machinery (hysteresis,
capacity pressure, refine swaps), the executor's metrics/audit side
effects, the ``adaptive-placement`` timer rule that ``configure``
installs, the management-API envelopes, and the ``adaptive_placement``
spec primitive.
"""

import pytest

from repro.core.errors import (
    BadConfigError, TieraError, UnknownFeatureError,
)
from repro.core.placement import OBJECTIVES, PLACEMENT_RULE, expected_latency
from repro.core.policy import PolicyError, Rule
from repro.core.responses import Store
from repro.core.selectors import InsertObject
from repro.core.events import ActionEvent
from repro.core.server import TieraServer
from repro.simcloud.resources import RequestContext
from repro.spec import compile_spec
from tests.core.conftest import build_instance

KB = 1024


def cold_instance(registry, mem=16 * KB, ebs=10 ** 7):
    """Two tiers with inserts pinned to the slow one, so every placement
    in the fast tier is the engine's own doing."""
    return build_instance(
        registry,
        [("tier1", "Memcached", mem), ("tier2", "EBS", ebs)],
        rules=[Rule(
            ActionEvent("insert"),
            [Store(InsertObject(), ("tier2",))],
            name="persist-only",
        )],
        name="placement-test",
    )


def enable(instance, **overrides):
    """An engine with no rule driving it: cycles run only when a test
    calls ``run_cycle``."""
    config = dict(interval=5.0, min_score=0.0, max_moves=8, prewarm_limit=4)
    config.update(overrides)
    instance.enable_heat(windows=(10.0, 60.0), top_k=16, hot_min=2)
    return instance.placement_engine(**config)


def heat_up(server, key, ctx, times=4, gap=0.5):
    for _ in range(times):
        server.get_object(key, ctx=ctx).raise_for_error()
        ctx.wait(gap)


class TestScoring:
    def test_expected_latency_is_deterministic(self, registry):
        instance = cold_instance(registry)
        tier1 = instance.tiers.get("tier1")
        a = expected_latency(tier1.service.latency, 4096)
        b = expected_latency(tier1.service.latency, 4096)
        assert a == b > 0

    def test_tier_order_ranks_fast_to_slow(self, registry):
        engine = enable(cold_instance(registry))
        assert engine._tier_order() == ["tier1", "tier2"]

    def test_objective_presets_reweight_the_same_move(self, registry):
        engine = enable(cold_instance(registry))
        scores = {}
        for objective in OBJECTIVES:
            engine.reconfigure(objective=objective)
            scores[objective] = engine.score_move(2.0, "tier2", "tier1", 4096)
        # Promotion buys latency and costs storage dollars: the latency
        # objective must love it the most, the cost objective the least.
        assert scores["latency"] > scores["balanced"] > scores["cost"]

    def test_demotion_scores_invert_the_preference(self, registry):
        engine = enable(cold_instance(registry))
        engine.reconfigure(objective="cost")
        cost = engine.score_move(0.0, "tier1", "tier2", 4096)
        engine.reconfigure(objective="latency")
        latency = engine.score_move(0.0, "tier1", "tier2", 4096)
        assert cost > latency > 0  # cold data always wants the cheap tier


class TestPlanning:
    def test_sketch_confirmed_hot_key_is_promoted(self, registry, cluster, ctx):
        instance = cold_instance(registry)
        server = TieraServer(instance)
        engine = enable(instance)
        server.put_object("hot", b"h" * 256, ctx=ctx)
        server.put_object("cold", b"c" * 256, ctx=ctx)
        heat_up(server, "hot", ctx)
        plan = engine.plan()
        moves = {d["key"]: d for d in plan["decisions"]}
        assert moves["hot"]["action"] == "promote"
        assert moves["hot"]["from"] == "tier2"
        assert moves["hot"]["to"] == "tier1"
        assert "cold" not in moves

    def test_plan_is_pure_and_repeatable(self, registry, cluster, ctx):
        instance = cold_instance(registry)
        server = TieraServer(instance)
        engine = enable(instance)
        server.put_object("hot", b"h" * 256, ctx=ctx)
        heat_up(server, "hot", ctx)
        first = engine.plan()
        second = engine.plan()
        assert first == second
        assert engine.moves == 0 and engine.cycles == 0
        assert instance.meta("hot").locations == {"tier2"}

    def test_single_access_never_pollutes_the_fast_tier(
        self, registry, cluster, ctx
    ):
        # A scan one-off spikes the EWMA to 1/window, but the sketch's
        # hot_min gate (guaranteed count) keeps it out of the plan.
        # Load before enabling heat: the put itself counts as an access.
        instance = cold_instance(registry)
        server = TieraServer(instance)
        server.put_object("hot", b"h" * 256, ctx=ctx)
        server.put_object("scanned", b"s" * 256, ctx=ctx)
        engine = enable(instance)
        heat_up(server, "hot", ctx)
        server.get_object("scanned", ctx=ctx).raise_for_error()
        plan = engine.plan()
        assert [d["key"] for d in plan["decisions"]] == ["hot"]

    def test_prewarm_label_and_limit(self, registry, cluster, ctx):
        instance = cold_instance(registry)
        server = TieraServer(instance)
        engine = enable(instance, prewarm_limit=1)
        server.put_object("idle", b"i" * 256, ctx=ctx)
        heat_up(server, "idle", ctx)
        ctx.wait(engine.interval * 3)  # confirmed-hot but not recent
        cluster.clock.run_until(ctx.time)
        plan = engine.plan()
        moves = {d["key"]: d for d in plan["decisions"]}
        assert moves["idle"]["action"] == "prewarm"
        assert moves["idle"]["reason"] == "predicted-hot"
        engine.reconfigure(prewarm_limit=0)
        plan = engine.plan()
        assert plan["decisions"] == []
        assert {"key": "idle", "reason": "prewarm-limit"} in plan["skipped"]

    def test_hysteresis_pins_recently_moved_keys(self, registry, cluster, ctx):
        instance = cold_instance(registry)
        server = TieraServer(instance)
        engine = enable(instance, hysteresis=10 ** 6)
        server.put_object("hot", b"h" * 256, ctx=ctx)
        heat_up(server, "hot", ctx)
        engine.run_cycle(ctx)
        assert "tier1" in instance.meta("hot").locations
        ctx.wait(1000.0)  # EWMA collapses: the key now wants demoting
        cluster.clock.run_until(ctx.time)
        plan = engine.plan()
        assert plan["decisions"] == []
        assert {"key": "hot", "reason": "hysteresis"} in plan["skipped"]

    def test_ex_hot_key_demotes_once_its_rate_decays(
        self, registry, cluster, ctx
    ):
        # Sketch counts never decay — eviction must follow the EWMA.
        instance = cold_instance(registry)
        server = TieraServer(instance)
        engine = enable(instance, hysteresis=0.0)
        server.put_object("hot", b"h" * 256, ctx=ctx)
        heat_up(server, "hot", ctx)
        engine.run_cycle(ctx)
        assert "tier1" in instance.meta("hot").locations
        assert instance.obs.heat.is_hot("hot")
        ctx.wait(1000.0)
        cluster.clock.run_until(ctx.time)
        plan = engine.plan()
        moves = {d["key"]: d for d in plan["decisions"]}
        assert moves["hot"]["action"] == "demote"
        assert moves["hot"]["reason"] == "cold"
        engine.run_cycle(ctx)
        assert instance.meta("hot").locations == {"tier2"}

    def test_refine_swaps_blocked_promotion_with_cold_resident(
        self, registry, cluster, ctx
    ):
        # tier1 holds exactly one record; a colder resident must make
        # way for a hotter blocked promotion.
        instance = cold_instance(registry, mem=300)
        server = TieraServer(instance)
        engine = enable(instance, hysteresis=0.0)
        server.put_object("warm", b"w" * 256, ctx=ctx)
        server.put_object("blazing", b"b" * 256, ctx=ctx)
        heat_up(server, "warm", ctx, times=3)
        engine.run_cycle(ctx)
        assert "tier1" in instance.meta("warm").locations
        heat_up(server, "blazing", ctx, times=8, gap=0.1)
        plan = engine.plan()
        by_key = {d["key"]: d for d in plan["decisions"]}
        assert by_key["blazing"]["reason"] == "refine-swap"
        assert by_key["warm"]["action"] == "demote"
        assert not any(s["reason"] == "capacity" for s in plan["skipped"])

    def test_capacity_pressure_penalizes_near_full_destinations(
        self, registry
    ):
        engine = enable(cold_instance(registry, mem=10 * KB),
                        high_watermark=0.5)
        projected = {"tier1": 9 * KB}
        assert engine._pressure(projected, "tier1", 512) > 0.0
        assert engine._pressure({"tier1": 0}, "tier1", 512) == 0.0


class TestExecution:
    def test_run_cycle_moves_data_metrics_and_audit(
        self, registry, cluster, ctx
    ):
        instance = cold_instance(registry)
        server = TieraServer(instance)
        engine = enable(instance)
        server.put_object("hot", b"h" * 256, ctx=ctx)
        heat_up(server, "hot", ctx)
        plan = engine.run_cycle(ctx)
        assert plan["decisions"][0]["applied"] is True
        assert "tier1" in instance.meta("hot").locations
        assert engine.cycles == 1 and engine.moves == 1
        assert engine.bytes_moved == 256
        snap = instance.obs.metrics.snapshot()["metrics"]
        assert sum(
            snap["tiera_placement_moves_total"]["samples"].values()
        ) == 1
        records = instance.obs.audit.records(category="placement")
        assert len(records) == 1
        assert records[0].name == "adaptive-balanced"
        assert records[0].detail["actions"] == {"promote": 1}

    def test_timer_cadence_runs_cycles(self, registry, cluster, ctx):
        instance = cold_instance(registry)
        server = TieraServer(instance)
        instance.enable_heat(windows=(10.0, 60.0), hot_min=2)
        engine = instance.enable_placement(interval=2.0, min_score=0.0)
        assert engine.running
        server.put_object("hot", b"h" * 256, ctx=ctx)
        heat_up(server, "hot", ctx)
        cluster.clock.run_until(ctx.time + 10.0)
        assert engine.cycles >= 4
        assert "tier1" in instance.meta("hot").locations
        instance.policy.remove(PLACEMENT_RULE)
        assert not engine.running
        cycles = engine.cycles
        cluster.clock.run_until(ctx.time + 50.0)
        assert engine.cycles == cycles

    def test_shutdown_detaches_the_timer(self, registry, cluster):
        instance = cold_instance(registry)
        engine = instance.enable_placement(interval=2.0)
        assert engine.running
        cluster.clock.run_until(5.0)
        assert engine.cycles == 2
        instance.shutdown()
        assert not engine.running
        cluster.clock.run_until(50.0)
        assert engine.cycles == 2


def placement_rules(instance):
    return [r.name for r in instance.policy if r.name == PLACEMENT_RULE]


class TestPlacementRule:
    """``configure`` puts the engine on the control layer's cadence."""

    def test_new_interval_re_arms_one_rule(self, registry, cluster):
        instance = cold_instance(registry)
        engine = instance.enable_placement(interval=2.0)
        cluster.clock.run_until(5.0)            # fires at 2, 4
        assert engine.cycles == 2
        instance.enable_placement(interval=5.0)
        cluster.clock.run_until(21.0)           # fires at 10, 15, 20
        assert engine.cycles == 5
        assert placement_rules(instance) == [PLACEMENT_RULE]
        assert instance.policy.rule(PLACEMENT_RULE).event.interval == 5.0

    def test_same_interval_keeps_the_timer_phase(self, registry, cluster):
        instance = cold_instance(registry)
        engine = instance.enable_placement(interval=4.0)
        cluster.clock.run_until(3.0)
        instance.enable_placement(interval=4.0, objective="cost")
        cluster.clock.run_until(4.5)            # still due at 4, not at 7
        assert engine.cycles == 1
        assert engine.objective == "cost"
        assert placement_rules(instance) == [PLACEMENT_RULE]

    def test_spec_rule_named_placement_is_left_alone(self, registry, cluster):
        instance = compile_spec(SPEC_WITH_PLACEMENT_RULE, registry)
        server = TieraServer(instance)
        server.configure("placement", interval=3.0).raise_for_error()
        assert [r.name for r in instance.policy] == [
            "placement", PLACEMENT_RULE,
        ]
        ctx = RequestContext(cluster.clock)
        server.put_object("k", b"v" * 64, ctx=ctx).raise_for_error()
        assert instance.control.fired["placement"] == 1
        assert "tier2" in instance.meta("k").locations

    def test_failed_cycle_is_a_background_error(
        self, registry, cluster, monkeypatch
    ):
        instance = cold_instance(registry)
        engine = instance.enable_placement(interval=2.0)

        def boom(now=None):
            raise TieraError("plan exploded")

        monkeypatch.setattr(engine, "plan", boom)
        cluster.clock.run_until(3.0)            # must not raise
        (source, exc), = instance.control.background_errors
        assert source == PLACEMENT_RULE
        assert "plan exploded" in str(exc)
        samples = instance.obs.metrics.snapshot()["metrics"][
            "tiera_background_errors_total"]["samples"]
        assert sum(samples.values()) == 1


class TestReconfigure:
    def test_unknown_objective_is_refused(self, registry):
        engine = enable(cold_instance(registry))
        with pytest.raises(ValueError, match="unknown objective"):
            engine.reconfigure(objective="yolo")

    def test_unknown_option_is_refused(self, registry):
        engine = enable(cold_instance(registry))
        with pytest.raises(TypeError, match="unknown placement option"):
            engine.reconfigure(burst_mode=True)

    def test_validation_happens_before_mutation(self, registry):
        engine = enable(cold_instance(registry), max_moves=7)
        with pytest.raises(ValueError):
            engine.reconfigure(max_moves=3, interval=-1.0)
        assert engine.max_moves == 7

    def test_hysteresis_tracks_interval_until_set_explicitly(self, registry):
        engine = enable(cold_instance(registry), interval=5.0)
        assert engine.hysteresis == 10.0
        engine.reconfigure(interval=3.0)
        assert engine.hysteresis == 6.0
        engine.reconfigure(hysteresis=42.0)
        engine.reconfigure(interval=1.0)
        assert engine.hysteresis == 42.0

    def test_enable_placement_is_idempotent_reconfigure(self, registry):
        instance = cold_instance(registry)
        engine = instance.enable_placement(interval=5.0)
        again = instance.enable_placement(objective="cost")
        assert again is engine
        assert engine.objective == "cost"
        assert engine.interval == 5.0

    def test_enable_placement_turns_heat_on(self, registry):
        instance = cold_instance(registry)
        assert not instance.obs.heat.enabled
        instance.enable_placement()
        assert instance.obs.heat.enabled


class TestManagementEnvelopes:
    def test_unknown_feature_code(self, registry):
        server = TieraServer(cold_instance(registry))
        result = server.configure("flux-capacitor", power="1.21GW")
        assert not result.ok
        assert result.error == "UNKNOWN_FEATURE"
        with pytest.raises(UnknownFeatureError):
            result.raise_for_error()
        status = server.feature_status("flux-capacitor")
        assert status.error == "UNKNOWN_FEATURE"

    def test_bad_config_code(self, registry):
        server = TieraServer(cold_instance(registry))
        result = server.configure("placement", objective="yolo")
        assert not result.ok
        assert result.error == "BAD_CONFIG"
        assert "objective" in result.error_message
        assert result.enabled is False  # refused config must not enable
        with pytest.raises(BadConfigError):
            result.raise_for_error()

    def test_configure_then_status_round_trip(self, registry):
        server = TieraServer(cold_instance(registry))
        assert server.feature_status("placement").enabled is False
        result = server.configure(
            "placement", objective="cost", interval=30.0,
        )
        assert result.ok and result.enabled
        assert result.state["objective"] == "cost"
        status = server.feature_status("placement")
        assert status.state["interval"] == 30.0
        assert status.state["cycles"] == 0

    def test_placement_verbs_before_enable(self, registry):
        server = TieraServer(cold_instance(registry))
        status = server.feature_status("placement")
        assert status.ok and status.enabled is False and status.state == {}
        for action in ("plan", "run"):
            refused = server.invoke("placement", action)
            assert refused.enabled is False and refused.state == {}
            assert refused.error == "FEATURE_DISABLED"

    def test_health_reports_placement(self, registry):
        server = TieraServer(cold_instance(registry))
        server.configure("placement", interval=9.0).raise_for_error()
        doc = server.health()
        assert doc["placement"]["running"] is True


SPEC_WITH_PLACEMENT = """
Tiera AdaptiveInstance(time t) {
    tier1: { name: Memcached, size: 64K };
    tier2: { name: EBS, size: 10M };
    event(insert.into) : response {
        store(what: insert.object, to: tier2);
    }
    event(time=t) : response {
        adaptive_placement(objective: latency, interval: 30);
    }
}
"""


SPEC_WITH_PLACEMENT_RULE = """
Tiera Ablation() {
    tier1: { name: Memcached, size: 64K };
    tier2: { name: EBS, size: 10M };
    event "placement"(insert.into) : response {
        store(what: insert.object, to: tier2);
    }
}
"""


class TestSpecPrimitive:
    def test_rule_driven_engine_has_no_own_timer(self, registry, cluster):
        instance = compile_spec(SPEC_WITH_PLACEMENT, registry, args={"t": 10})
        server = TieraServer(instance)
        ctx = RequestContext(cluster.clock)
        server.put_object("hot", b"h" * 256, ctx=ctx)
        # Drain the clock between accesses so the rule's timer fires
        # mid-stream: the first firing enables heat tracking, the later
        # ones see a sketch-confirmed hot key and promote it.
        for _ in range(20):
            server.get_object("hot", ctx=ctx).raise_for_error()
            ctx.wait(2.0)
            cluster.clock.run_until(ctx.time)
        engine = instance.placement
        assert engine is not None
        assert engine.objective == "latency"
        assert not engine.running       # cadence comes from the rule
        assert engine.cycles >= 2
        assert "tier1" in instance.meta("hot").locations

    def test_bad_objective_is_a_compile_error(self, registry):
        bad = SPEC_WITH_PLACEMENT.replace("latency", "warp9")
        with pytest.raises(PolicyError, match="objective"):
            compile_spec(bad, registry, args={"t": 10})

    def test_bad_interval_is_a_compile_error(self, registry):
        bad = SPEC_WITH_PLACEMENT.replace("interval: 30", "interval: 0")
        with pytest.raises(PolicyError, match="interval"):
            compile_spec(bad, registry, args={"t": 10})
