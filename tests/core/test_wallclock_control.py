"""The control layer on real (wall-clock) time.

Everything else in the suite drives SimClock; these tests confirm the
same policy machinery works when timers are real threads — the mode the
RPC server and the CLI's ``serve`` command run in.
"""

import time

import pytest

from repro.core.events import ActionEvent, TimerEvent
from repro.core.instance import TieraInstance
from repro.core.policy import Policy, Rule
from repro.core.responses import Copy, Store
from repro.core.selectors import InsertObject, ObjectsWhere
from repro.core.conditions import AttrRef, Comparison, Literal
from repro.core.server import TieraServer
from repro.simcloud.clock import WallClock
from repro.simcloud.cluster import Cluster
from repro.tiers.registry import TierRegistry


@pytest.fixture
def wall_stack():
    clock = WallClock()
    cluster = Cluster(clock=clock)
    registry = TierRegistry(cluster)
    yield clock, registry
    clock.shutdown()


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestWallClockControl:
    def test_timer_rule_fires_on_real_time(self, wall_stack):
        clock, registry = wall_stack
        tiers = [
            registry.create("Memcached", tier_name="tier1", size=10 ** 6),
            registry.create("EBS", tier_name="tier2", size=10 ** 7),
        ]
        in_tier1 = ObjectsWhere(
            Comparison("==", AttrRef(("object", "location")), Literal("tier1"))
        )
        instance = TieraInstance(
            name="wall",
            tiers=tiers,
            policy=Policy([
                Rule(ActionEvent("insert"), [Store(InsertObject(), "tier1")],
                     name="place"),
                Rule(TimerEvent(0.05), [Copy(in_tier1, "tier2")],
                     name="fast-write-back"),
            ]),
            clock=clock,
        )
        server = TieraServer(instance)
        server.put_object("k", b"v").raise_for_error()
        assert instance.meta("k").locations == {"tier1"}
        assert wait_for(lambda: "tier2" in instance.meta("k").locations)
        instance.shutdown()

    def test_shutdown_stops_real_timers(self, wall_stack):
        clock, registry = wall_stack
        from repro.core.responses import Response

        tiers = [registry.create("Memcached", tier_name="tier1", size=10 ** 6)]
        fired = []

        class Probe(Response):
            def execute(self, scope, ctx):
                fired.append(time.monotonic())
        instance = TieraInstance(
            name="wall2",
            tiers=tiers,
            policy=Policy([Rule(TimerEvent(0.05), [Probe()], name="tick")]),
            clock=clock,
        )
        assert wait_for(lambda: len(fired) >= 2)
        instance.shutdown()
        count = len(fired)
        time.sleep(0.2)
        assert len(fired) <= count + 1  # at most one in-flight straggler
