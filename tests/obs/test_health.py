"""The server's health summary: tier availability + background dirt."""

from repro.core.server import TieraServer
from repro.core import templates


class TestHealth:
    def test_healthy_instance(self, registry):
        instance = templates.write_through_instance(registry, mem="4M", ebs="4M")
        server = TieraServer(instance)
        server.put_object("k", b"v").raise_for_error()
        health = server.health()
        assert health["status"] == "ok"
        assert health["instance"] == "WriteThrough"
        assert health["objects"] == 1
        assert health["rules_fired"] == {"write-through": 1}
        assert health["background_errors"] == 0
        assert health["audit_errors"] == 0
        assert [t["name"] for t in health["tiers"]] == ["tier1", "tier2"]
        assert all(t["available"] for t in health["tiers"])

    def test_failed_tier_degrades_status(self, registry):
        instance = templates.write_through_instance(registry, mem="4M", ebs="4M")
        server = TieraServer(instance)
        instance.tiers.get("tier2").service.fail()
        health = server.health()
        assert health["status"] == "degraded"
        assert [t["available"] for t in health["tiers"]] == [True, False]

    def test_background_errors_make_status_dirty(self, registry, cluster):
        instance = templates.high_durability_instance(registry, push_interval=60)
        server = TieraServer(instance)
        instance.tiers.get("tier3").service.fail()
        server.put_object("k", b"v").raise_for_error()
        cluster.clock.advance(61)  # the push fires against dead S3, swallowed
        instance.tiers.get("tier3").service.recover()

        health = server.health()
        assert health["status"] == "dirty"
        assert health["background_errors"] >= 1
        assert health["audit_errors"] >= 1
        assert any(
            "push-to-s3" in line for line in health["recent_background_errors"]
        )
