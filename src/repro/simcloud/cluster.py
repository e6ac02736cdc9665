"""Nodes, availability zones, and failure injection.

The paper places the two Memcached tiers of ``MemcachedReplicated`` in
*different availability zones* ("isolated locations connected via low
latency links"), simulates an EBS outage by timing out writes
(Figure 17), and provisions a fresh EC2 instance in about a minute when a
tier grows (Figure 16).  This module supplies those three behaviours:
zones with a small cross-zone latency penalty, per-service failure
switches, and provisioning with a delay.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.simcloud.clock import Clock, SimClock

if TYPE_CHECKING:
    from repro.simcloud.services.base import StorageService


# Cross-zone round trip inside one region, 2014-era AWS: ~1 ms.
CROSS_ZONE_LATENCY = 0.0010
PROVISIONING_DELAY = 60.0  # "took approximately 1 minute" (Figure 16)


@dataclass
class AvailabilityZone:
    """An isolated fault domain; nodes in the same zone talk for free."""

    name: str

    def latency_to(self, other: "AvailabilityZone") -> float:
        return 0.0 if other.name == self.name else CROSS_ZONE_LATENCY


@dataclass
class Node:
    """An EC2-instance stand-in that hosts simulated services."""

    name: str
    zone: AvailabilityZone
    failed: bool = False
    services: List["StorageService"] = field(default_factory=list)

    def fail(self) -> None:
        """Kill the instance: non-durable services on it lose their data."""
        self.failed = True
        for service in self.services:
            service.crash()

    def recover(self) -> None:
        self.failed = False


class Cluster:
    """The region: zones, nodes, a shared clock and RNG, provisioning.

    Each experiment builds one cluster, hangs services off its nodes, and
    drives its :class:`~repro.simcloud.clock.SimClock`.  ``rng`` is the
    single seeded randomness source so runs reproduce bit-for-bit.
    """

    def __init__(self, clock: Optional[Clock] = None, seed: int = 2014):
        from repro.obs.hub import Observability  # avoid import cycle
        from repro.simcloud.faults import FaultInjector  # avoid import cycle

        self.clock = clock if clock is not None else SimClock()
        self.rng = random.Random(seed)
        #: the stack-wide observability hub: services provisioned on this
        #: cluster, and Tiera instances built over them, record here.
        self.obs = Observability(self.clock)
        #: the stack-wide fault-injection engine.  Its RNG is a stream
        #: separate from ``self.rng`` (which drives latency sampling),
        #: so wiring it in perturbs nothing until a fault is scheduled —
        #: and scheduling one is reproducible from the cluster seed.
        self.faults = FaultInjector(
            self.clock, rng=random.Random((seed << 1) ^ 0xFA17), obs=self.obs
        )
        self.zones: Dict[str, AvailabilityZone] = {}
        self.nodes: Dict[str, Node] = {}
        self._provision_count = 0

    def chaos(self, scenario, at: float = 0.0) -> None:
        """Schedule a :class:`~repro.simcloud.faults.ChaosScenario`."""
        self.faults.run_scenario(scenario, at=at)

    def fail_zone(self, zone: str) -> None:
        """Kill every node in an availability zone (regional outage)."""
        for node in self.nodes.values():
            if node.zone.name == zone:
                node.fail()

    def recover_zone(self, zone: str) -> None:
        for node in self.nodes.values():
            if node.zone.name == zone:
                node.recover()

    def zone(self, name: str) -> AvailabilityZone:
        """Get or create the availability zone ``name``."""
        if name not in self.zones:
            self.zones[name] = AvailabilityZone(name)
        return self.zones[name]

    def add_node(self, name: str, zone: str = "us-east-1a") -> Node:
        if name in self.nodes:
            raise ValueError(f"node {name!r} already exists")
        node = Node(name=name, zone=self.zone(zone))
        self.nodes[name] = node
        return node

    def node(self, name: str) -> Node:
        return self.nodes[name]

    def provision_node(
        self,
        zone: str = "us-east-1a",
        delay: float = PROVISIONING_DELAY,
        on_ready: Optional[Callable[[Node], None]] = None,
    ) -> Node:
        """Spin up a new node; it becomes usable after ``delay`` seconds.

        The node starts out ``failed`` (not yet booted) and recovers when
        provisioning completes, at which point ``on_ready`` fires.  This
        reproduces the one-minute gap in Figure 16 between hitting the
        grow threshold and added capacity coming online.
        """
        self._provision_count += 1
        node = self.add_node(f"provisioned-{self._provision_count}", zone)
        node.failed = True

        def ready() -> None:
            node.recover()
            if on_ready is not None:
                on_ready(node)

        self.clock.schedule(delay, ready)
        return node

    def cross_zone_latency(self, a: Node, b: Node) -> float:
        return a.zone.latency_to(b.zone)
