"""The failure-detecting monitor of §4.2.3.

"We also deployed an external monitoring application that detects a
storage failure and will reconfigure the instance if this occurs.  The
monitoring application writes data to the Tiera instance on a 2 minute
schedule.  It assumes a storage service has failed if the attempt to
write data (after successive retries) fails."

:class:`StorageMonitor` runs on the instance's clock: every
``probe_interval`` seconds it writes a canary object; on
``retries`` consecutive failures it invokes the registered repair
callback (which, in the Figure 17 experiment, swaps the failed EBS tier
for Ephemeral + S3 with the matching policy rules).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.server import TieraServer
from repro.simcloud.clock import Timer
from repro.simcloud.resources import RequestContext

PROBE_INTERVAL = 120.0  # "writes data ... on a 2 minute schedule"
RETRIES = 2
CANARY_KEY = "__monitor_canary__"


class StorageMonitor:
    """Canary writer + repair trigger for one Tiera instance."""

    def __init__(
        self,
        server: TieraServer,
        on_failure: Callable[[], None],
        probe_interval: float = PROBE_INTERVAL,
        retries: int = RETRIES,
    ):
        self.server = server
        self.on_failure = on_failure
        self.probe_interval = probe_interval
        self.retries = retries
        self.probes = 0
        self.failures_seen = 0
        self.repaired = False
        self._timer: Optional[Timer] = None
        self._probe_counter = server.obs.metrics.counter(
            "tiera_monitor_probes_total", "Monitor canary probes by outcome."
        )

    def start(self) -> "StorageMonitor":
        self._timer = self.server.clock.schedule_repeating(
            self.probe_interval, self.probe
        )
        return self

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def probe(self) -> None:
        """One canary write, with immediate retries on failure.

        A single canary key is overwritten on every probe and deleted
        again after a healthy one, so probing leaves no objects behind
        (earlier versions wrote ``__monitor_canary_<n>`` and leaked one
        object per probe into every tier the policy touched).
        """
        self.probes += 1
        payload = b"canary" * 16
        error: Optional[str] = None
        for _ in range(self.retries):
            ctx = RequestContext(self.server.clock)
            result = self.server.put_object(
                CANARY_KEY, payload, tags=["monitor"], ctx=ctx
            )
            if not result.ok:
                error = f"{result.error_type}: {result.error_message}"
                continue
            # Cleanup is best-effort (a failure stays in the envelope);
            # the write proved health.
            self.server.delete_object(CANARY_KEY)
            self._record("healthy", None)
            # A healthy probe doubles as a recovery signal: kick the
            # repair queue for any tier that is reachable again (a
            # FEATURE_DISABLED envelope when the layer is off).
            self.server.invoke("resilience", "replay")
            return
        self.failures_seen += 1
        self._record("failed", error)
        if not self.repaired:
            self.repaired = True
            self.on_failure()

    def _record(self, outcome: str, error: Optional[str]) -> None:
        self._probe_counter.inc(outcome=outcome)
        from repro.obs.audit import AuditRecord

        self.server.obs.audit.append(
            AuditRecord(
                time=self.server.clock.now(),
                category="probe",
                name="storage-monitor",
                origin="monitor",
                foreground=False,
                error=error,
                detail={"probe": self.probes, "outcome": outcome},
            )
        )
