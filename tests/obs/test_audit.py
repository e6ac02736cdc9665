"""The policy audit log: ring semantics and control-layer integration."""

from repro.core.server import TieraServer
from repro.core import templates
from repro.obs.audit import AuditLog, AuditRecord


def record(n, category="rule", error=None):
    return AuditRecord(time=float(n), category=category, name=f"r{n}", error=error)


class TestAuditLogRing:
    def test_append_and_len(self):
        log = AuditLog(capacity=10)
        log.append(record(1))
        log.append(record(2))
        assert len(log) == 2
        assert log.appended == 2
        assert log.dropped == 0

    def test_ring_drops_oldest_and_counts(self):
        log = AuditLog(capacity=2)
        for n in range(5):
            log.append(record(n))
        assert len(log) == 2
        assert log.appended == 5
        assert log.dropped == 3
        assert [r.name for r in log] == ["r3", "r4"]

    def test_filters(self):
        log = AuditLog()
        log.append(record(1, category="rule"))
        log.append(record(2, category="probe"))
        log.append(record(3, category="rule", error="boom"))
        assert [r.name for r in log.records(category="rule")] == ["r1", "r3"]
        assert [r.name for r in log.records(errors_only=True)] == ["r3"]
        assert [r.name for r in log.records(name="r2")] == ["r2"]
        assert [r.name for r in log.tail(2)] == ["r2", "r3"]
        assert log.error_count() == 1

    def test_to_dict_omits_empty_optionals(self):
        plain = record(1).to_dict()
        assert "error" not in plain and "detail" not in plain
        rich = AuditRecord(
            time=0.0, category="probe", name="p", error="x", detail={"n": 1}
        ).to_dict()
        assert rich["error"] == "x"
        assert rich["detail"] == {"n": 1}

    def test_capacity_must_be_positive(self):
        import pytest

        with pytest.raises(ValueError):
            AuditLog(capacity=0)

    def test_limit_zero_is_none_and_negative_is_refused(self):
        """Regression: ``limit=0`` sliced ``[-0:]`` and returned every
        record; ``limit=-2`` silently dropped the two oldest."""
        import pytest

        log = AuditLog()
        for n in range(5):
            log.append(record(n))
        assert log.records(limit=0) == [] and log.to_dicts(limit=0) == []
        assert [r.name for r in log.records(limit=9)] == [
            f"r{n}" for n in range(5)
        ]
        with pytest.raises(ValueError):
            log.records(limit=-2)


class TestControlLayerAuditing:
    def test_foreground_rule_is_audited_with_tiers(self, registry):
        instance = templates.write_through_instance(registry, mem="4M", ebs="4M")
        server = TieraServer(instance)
        server.put_object("k", b"x" * 64).raise_for_error()

        records = instance.obs.audit.records(category="rule")
        assert len(records) == 1
        rec = records[0]
        assert rec.name == "write-through"
        assert rec.origin == "action:insert"
        assert rec.foreground
        assert rec.tiers_touched == ("tier1", "tier2")
        assert rec.objects_moved == 2
        assert rec.duration > 0
        assert rec.error is None

    def test_timer_rule_audited_as_background(self, registry, cluster):
        instance = templates.high_durability_instance(
            registry, push_interval=60
        )
        server = TieraServer(instance)
        server.put_object("k", b"v").raise_for_error()
        cluster.clock.advance(61)

        timer_records = instance.obs.audit.records(name="push-to-s3")
        assert timer_records
        assert all(r.origin == "timer" for r in timer_records)
        assert all(not r.foreground for r in timer_records)

    def test_swallowed_background_failure_is_audited(self, registry, cluster):
        """The satellite fix: background errors stop being silent."""
        instance = templates.high_durability_instance(
            registry, push_interval=60
        )
        server = TieraServer(instance)
        instance.tiers.get("tier3").service.fail()  # S3 down
        server.put_object("k", b"v").raise_for_error()
        cluster.clock.advance(61)  # the push fires and fails, swallowed

        # Legacy list still populated...
        assert instance.control.background_errors
        # ...and now also: audit record with the error...
        failures = instance.obs.audit.records(name="push-to-s3", errors_only=True)
        assert failures
        assert "push-to-s3" in [r.name for r in failures]
        assert failures[0].error
        # ...and the counter.
        bg = instance.obs.metrics.get("tiera_background_errors_total")
        assert bg.value(instance=instance.owner, source="push-to-s3") >= 1

    def test_rules_fired_counter_matches_legacy_dict(self, registry):
        instance = templates.write_through_instance(registry, mem="4M", ebs="4M")
        server = TieraServer(instance)
        for n in range(3):
            server.put_object(f"k{n}", b"v").raise_for_error()
        fired = instance.obs.metrics.get("tiera_rules_fired_total")
        assert fired.value(instance=instance.owner, rule="write-through") == 3
        assert instance.control.fired["write-through"] == 3

    def test_rule_seconds_split_by_mode(self, registry, cluster):
        instance = templates.high_durability_instance(registry, push_interval=60)
        server = TieraServer(instance)
        server.put_object("k", b"v").raise_for_error()
        cluster.clock.advance(61)
        seconds = instance.obs.metrics.get("tiera_rule_seconds_total")
        owner = instance.owner
        assert seconds.value(
            instance=owner, rule="write-through-ebs", mode="foreground"
        ) > 0
        assert seconds.value(
            instance=owner, rule="push-to-s3", mode="background"
        ) > 0
        assert seconds.value(
            instance=owner, rule="push-to-s3", mode="foreground"
        ) == 0
