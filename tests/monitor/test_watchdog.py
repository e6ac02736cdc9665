"""The failure monitor drives the Figure 17 repair."""

import pytest

from repro.core import templates
from repro.core.server import TieraServer
from repro.monitor import StorageMonitor


@pytest.fixture
def stack(registry, cluster):
    instance = templates.write_through_instance(registry, mem="4M", ebs="4M")
    server = TieraServer(instance)
    return instance, server, cluster


class TestMonitor:
    def test_healthy_probes_do_not_repair(self, stack):
        instance, server, cluster = stack
        fired = []
        monitor = StorageMonitor(server, on_failure=lambda: fired.append(1)).start()
        cluster.clock.advance(600)
        assert monitor.probes == 5
        assert fired == []

    def test_failure_detected_within_one_probe(self, stack):
        instance, server, cluster = stack
        fired = []
        monitor = StorageMonitor(server, on_failure=lambda: fired.append(1)).start()
        cluster.clock.advance(121)  # one healthy probe
        instance.tiers.get("tier2").service.fail()
        cluster.clock.advance(120)  # next probe hits the failure
        assert fired == [1]
        assert monitor.failures_seen == 1

    def test_repair_fires_once(self, stack):
        instance, server, cluster = stack
        fired = []
        StorageMonitor(server, on_failure=lambda: fired.append(1)).start()
        instance.tiers.get("tier2").service.fail()
        cluster.clock.advance(600)
        assert fired == [1]

    def test_stop_cancels_probing(self, stack):
        instance, server, cluster = stack
        monitor = StorageMonitor(server, on_failure=lambda: None).start()
        cluster.clock.advance(121)
        monitor.stop()
        cluster.clock.advance(600)
        assert monitor.probes == 1

    def test_canary_objects_do_not_accumulate(self, stack):
        """The leak fix: probing leaves no objects behind."""
        instance, server, cluster = stack
        StorageMonitor(server, on_failure=lambda: None).start()
        cluster.clock.advance(600)  # 5 probes
        assert instance.object_count() == 0
        assert not server.contains("__monitor_canary__")

    def test_probe_outcomes_recorded(self, stack):
        instance, server, cluster = stack
        monitor = StorageMonitor(server, on_failure=lambda: None).start()
        cluster.clock.advance(250)  # two healthy probes
        instance.tiers.get("tier2").service.fail()
        cluster.clock.advance(120)  # one failed probe

        probes = instance.obs.metrics.get("tiera_monitor_probes_total")
        assert probes.value(outcome="healthy") == 2
        assert probes.value(outcome="failed") == 1
        records = instance.obs.audit.records(category="probe")
        assert [r.detail["outcome"] for r in records] == [
            "healthy", "healthy", "failed"
        ]
        assert records[-1].error is not None
        assert monitor.failures_seen == 1

    def test_full_figure17_repair(self, stack, registry):
        """Failure → detection → reconfiguration → service restored."""
        instance, server, cluster = stack

        def repair():
            tiers, rules = templates.ephemeral_s3_reconfiguration(registry)
            instance.reconfigure(
                add_tiers=tiers,
                remove_tiers=["tier1", "tier2"],
                replace_policy=rules,
            )

        StorageMonitor(server, on_failure=repair).start()
        server.put_object("pre-failure", b"v").raise_for_error()
        instance.tiers.get("tier2").service.fail()
        cluster.clock.advance(360)  # detection + repair happen in here
        result = server.put_object("post-repair", b"v").raise_for_error()
        assert instance.meta("post-repair").locations == {"tier3"}
        assert result.latency < 1.0  # writes are fast again
