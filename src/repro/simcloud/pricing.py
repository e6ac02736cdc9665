"""2014-era AWS price book and cost accounting.

The paper's cost panels (Figures 9b, 11b, 13b) report the *total cost of
storage per month* for each instance configuration, priced from the AWS
price sheet of the day.  Absolute dollars matter less than the ratios:
memory (ElastiCache) is two orders of magnitude dearer per GB than S3,
with EBS in between, and S3 additionally charges per request (which is
what the ``storeOnce`` experiment, Figure 12, reduces).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

GB = 1024 ** 3


@dataclass(frozen=True)
class PriceBook:
    """Monthly storage prices ($/GB-month) and request prices ($/request)."""

    # cache.m1.small was $0.068/hr for 1.3 GB usable: ~$38/GB-month.
    memcached_gb_month: float = 35.00
    ebs_gb_month: float = 0.10
    s3_gb_month: float = 0.03
    ephemeral_gb_month: float = 0.00  # bundled with the EC2 instance
    # S3 requests: $0.005 per 1,000 PUTs, $0.004 per 10,000 GETs.
    s3_put_request: float = 0.005 / 1000
    s3_get_request: float = 0.004 / 10000
    # EBS I/O: $0.10 per million requests.
    ebs_io_request: float = 0.10 / 1_000_000

    _STORAGE_RATES = {
        "memcached": "memcached_gb_month",
        "ebs": "ebs_gb_month",
        "s3": "s3_gb_month",
        "ephemeral": "ephemeral_gb_month",
    }

    def storage_rate(self, kind: str) -> float:
        """$/GB-month for a service kind (memcached/ebs/s3/ephemeral)."""
        try:
            return getattr(self, self._STORAGE_RATES[kind])
        except KeyError:
            raise ValueError(f"unknown storage kind {kind!r}") from None

    def monthly_storage_cost(self, kind: str, provisioned_bytes: int) -> float:
        """Monthly cost of keeping ``provisioned_bytes`` provisioned."""
        return self.storage_rate(kind) * provisioned_bytes / GB


@dataclass
class CostMeter:
    """Accumulates request counts for per-request charges.

    Services tick the meter on every operation; benchmarks read it to
    report request-charge deltas (Figure 12 plots the raw S3 request
    count falling as the duplicate fraction rises).
    """

    book: PriceBook = field(default_factory=PriceBook)
    counts: Dict[str, int] = field(default_factory=dict)

    def record(self, counter: str, n: int = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + n

    def count(self, counter: str) -> int:
        return self.counts.get(counter, 0)

    def request_charges(self) -> float:
        """Total request-based charges accumulated so far, in dollars.

        Services meter under ``<kind>.<op>`` (``ebs.get``/``ebs.put``):
        ``StorageService._count`` records the key prebuilt for each op,
        once per request made through ``_perform`` or charged by
        :class:`~repro.fs.rawfs.RawDeviceFileSystem`.  The
        ``ebs.read``/``ebs.write`` aliases are kept for callers that
        record I/O manually."""
        ebs_io = (
            self.count("ebs.get") + self.count("ebs.put")
            + self.count("ebs.read") + self.count("ebs.write")
        )
        return (
            self.count("s3.put") * self.book.s3_put_request
            + self.count("s3.get") * self.book.s3_get_request
            + ebs_io * self.book.ebs_io_request
        )

    def reset(self) -> None:
        self.counts.clear()
