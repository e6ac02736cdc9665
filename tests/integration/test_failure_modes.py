"""Failure injection beyond the Figure 17 scenario."""

import pytest

from repro.core.errors import TierUnavailableError
from repro.core.server import TieraServer
from repro.core.templates import (
    high_durability_instance,
    memcached_replicated_instance,
    persistent_instance,
)
from repro.simcloud.errors import ServiceUnavailableError


class TestS3Outage:
    """The 2008 S3 outage ([2] in the paper): the backup target dies."""

    def test_backup_failure_does_not_break_clients(self, registry, cluster):
        instance = high_durability_instance(registry, push_interval=60)
        server = TieraServer(instance)
        instance.tiers.get("tier3").service.fail()  # S3 down
        # foreground path: Memcached + EBS
        server.put_object("k", b"v").raise_for_error()
        assert server.get_object("k").raise_for_error().value == b"v"
        cluster.clock.advance(61)  # the S3 push fires and fails...
        # ...but is swallowed as a background error, not a crash.
        assert instance.control.background_errors
        assert server.get_object("k").raise_for_error().value == b"v"

    def test_backups_resume_after_recovery(self, registry, cluster):
        instance = high_durability_instance(registry, push_interval=60)
        server = TieraServer(instance)
        s3 = instance.tiers.get("tier3").service
        s3.fail()
        server.put_object("k", b"v").raise_for_error()
        cluster.clock.advance(61)
        assert "tier3" not in instance.meta("k").locations
        s3.recover()
        cluster.clock.advance(60)
        assert "tier3" in instance.meta("k").locations


class TestZoneFailure:
    def test_replicated_instance_survives_a_zone(self, registry, cluster):
        instance = memcached_replicated_instance(registry, mem="1M")
        server = TieraServer(instance)
        server.put_object("k", b"v").raise_for_error()
        # The whole us-east-1a zone goes dark: every node in it fails.
        for node in cluster.nodes.values():
            if node.zone.name == "us-east-1a":
                node.fail()
        # served from us-east-1b
        assert server.get_object("k").raise_for_error().value == b"v"

    def test_both_zones_down_is_fatal(self, registry, cluster):
        instance = memcached_replicated_instance(registry, mem="1M")
        server = TieraServer(instance)
        server.put_object("k", b"v").raise_for_error()
        for node in cluster.nodes.values():
            node.fail()
        with pytest.raises(TierUnavailableError):
            server.get_object("k").raise_for_error()


class TestForegroundFailurePropagation:
    def test_write_through_put_fails_loudly(self, registry):
        instance = persistent_instance(registry, mem="1M", ebs="1M")
        server = TieraServer(instance)
        instance.tiers.get("tier2").service.fail()
        # The Figure 4 write-through copy is foreground: the client sees
        # the EBS failure instead of silently losing durability.
        with pytest.raises(ServiceUnavailableError):
            server.put_object("k", b"v").raise_for_error()

    def test_failed_put_charges_the_timeout(self, registry):
        instance = persistent_instance(registry, mem="1M", ebs="1M")
        server = TieraServer(instance)
        instance.tiers.get("tier2").service.fail()
        from repro.simcloud.resources import RequestContext

        ctx = RequestContext(instance.clock)
        with pytest.raises(ServiceUnavailableError):
            server.put_object("k", b"v", ctx=ctx).raise_for_error()
        assert ctx.elapsed >= instance.tiers.get("tier2").service.timeout
