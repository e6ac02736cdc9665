"""Simulated EBS volume (network-attached persistent block store).

Millisecond-scale request latency, a narrow resource bank (magnetic
volumes serve few requests at once — this is the contention source in
Figures 8 and 14), and durable across node failures because the volume
lives outside the instance.
"""

from __future__ import annotations

from repro.simcloud.latency import blockstore_latency
from repro.simcloud.services.base import StorageService


class SimBlockVolume(StorageService):
    kind = "ebs"
    durable = True

    #: Synchronous (barrier) writes on 2014 magnetic EBS cost several
    #: times a read: the write must reach the replicated backing store
    #: before acknowledging.  Applied to put service times.
    WRITE_MULTIPLIER = 3.0

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("latency", blockstore_latency())
        kwargs.setdefault("channels", 2)
        self.write_multiplier = kwargs.pop("write_multiplier", self.WRITE_MULTIPLIER)
        super().__init__(*args, **kwargs)

    def _op_multiplier(self, op: str) -> float:
        return self.write_multiplier if op == "put" else 1.0

    # EBS ops are billed per I/O request; the base class meters them via
    # kind-prefixed counters ("ebs.put" / "ebs.get").
