"""Simulated S3 bucket.

Tens-of-milliseconds latency, effectively unlimited capacity, very cheap
per GB, highly parallel, extremely durable — and billed *per request*,
which is why the ``storeOnce`` experiment (Figure 12) reports the raw
number of S3 PUT/GET requests alongside latency.
"""

from __future__ import annotations

from repro.simcloud.latency import objectstore_latency
from repro.simcloud.services.base import StorageService


class SimObjectStore(StorageService):
    kind = "s3"
    durable = True

    def __init__(self, *args, **kwargs):
        kwargs.setdefault("latency", objectstore_latency())
        kwargs.setdefault("channels", 16)
        kwargs.setdefault("capacity", None)  # S3 has no provisioned cap
        super().__init__(*args, **kwargs)

    @property
    def put_requests(self) -> int:
        return self.op_counts.get("put", 0)

    @property
    def get_requests(self) -> int:
        return self.op_counts.get("get", 0) + self.op_counts.get("miss", 0)

    @property
    def total_requests(self) -> int:
        """All billable requests made against the bucket."""
        return sum(self.op_counts.values())
