"""Simulated EC2 ephemeral (instance-local) disk.

Latency comparable to EBS — the paper uses it as the drop-in replacement
when EBS fails (Figure 17) — but the data dies with the instance, so
policies must back it up to a durable store like S3.
"""

from __future__ import annotations

from repro.simcloud.latency import ephemeral_latency
from repro.simcloud.services.base import StorageService


class SimEphemeralDisk(StorageService):
    kind = "ephemeral"
    durable = False  # lost when the instance reboots or fails

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("latency", ephemeral_latency())
        kwargs.setdefault("channels", 2)
        super().__init__(*args, **kwargs)
