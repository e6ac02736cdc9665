"""The chaos preset's contracts, end to end.

1. **Determinism** — one seed, two runs, byte-identical reports: the
   injected-fault sequence, retry counts, latency numbers, and the
   final-object-state digest all derive from seeded RNGs and the
   virtual clock (what the ``chaos`` figure row's digests pin).
2. **Zero-cost when idle** — with no faults scheduled, enabling the
   resilience layer does not shift a single simulated latency: same
   operation count, same latency summary, same final state digest as
   the baseline run.
3. **Reads are right when calm** — with no faults scheduled, every GET
   returns bytes the harness's ledger allows.
"""

import json

import pytest

from repro.bench.sim import run_chaos
from repro.simcloud.faults import ChaosScenario

#: Short but meaningful window: the canned scenarios open their fault
#: window at t=60, so 90 driven seconds sees healthy + faulty phases.
DURATION = 90.0

CALM = ChaosScenario(name="calm", events=())


def report_json(**kwargs):
    return json.dumps(run_chaos(**kwargs), sort_keys=True)


class TestSameSeedSameBytes:
    def test_resilient_run_is_reproducible(self):
        a = report_json(scenario="transient-errors", seed=7, duration=DURATION)
        b = report_json(scenario="transient-errors", seed=7, duration=DURATION)
        assert a == b
        report = json.loads(a)
        # The run was not trivially empty: faults actually fired and
        # the layer actually worked.
        assert report["faults"]["counts"].get("transient-error", 0) > 0
        assert report["resilience"]["retries"] > 0
        assert report["state_digest"]

    def test_baseline_run_is_reproducible(self):
        a = report_json(
            scenario="flapping", seed=7, duration=DURATION, resilient=False
        )
        b = report_json(
            scenario="flapping", seed=7, duration=DURATION, resilient=False
        )
        assert a == b

    def test_different_seed_diverges(self):
        a = report_json(scenario="transient-errors", seed=7, duration=DURATION)
        b = report_json(scenario="transient-errors", seed=8, duration=DURATION)
        assert a != b

    def test_fault_schedule_is_identical_across_modes(self):
        """Baseline and resilient runs see the same weather: the
        scenario's apply/clear times don't depend on the layer."""
        base = run_chaos(
            scenario="transient-errors", seed=7, duration=DURATION,
            resilient=False,
        )
        res = run_chaos(
            scenario="transient-errors", seed=7, duration=DURATION,
            resilient=True,
        )
        assert base["faults"]["schedule"] == res["faults"]["schedule"]


class TestZeroFaultNoLatencyShift:
    def test_resilience_layer_is_free_when_calm(self):
        base = run_chaos(
            scenario=CALM, seed=5, duration=60.0, resilient=False
        )
        res = run_chaos(scenario=CALM, seed=5, duration=60.0, resilient=True)
        # Identical traffic, identical timing, identical final state.
        assert res["operations"] == base["operations"]
        assert res["latency_seconds"] == base["latency_seconds"]
        assert res["availability"] == base["availability"]
        assert res["state_digest"] == base["state_digest"]
        # And the layer itself reports zero activity.
        summary = res["resilience"]
        assert summary["retries"] == 0
        assert summary["degraded_writes"] == 0
        assert summary["replays"] == 0
        assert summary["repair_queue"]["enqueued"] == 0
        assert all(
            breaker["state"] == "closed"
            for breaker in summary["breakers"].values()
        )


class TestCalmReadsMatchTheLedger:
    @pytest.mark.parametrize("deployment", [
        "write-through",
        pytest.param("cached-s3", marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="ROADMAP defect (a), stale overwrite: a GET promotes the "
                   "object to tier1, the next PUT rewrites tier2 only, and "
                   "later GETs serve tier1's old bytes",
        )),
    ])
    def test_no_violation_without_faults(self, deployment):
        report = run_chaos(
            scenario=CALM, deployment=deployment, seed=5, duration=60.0,
            resilient=False,
        )
        assert report["model"]["checked"] > 0
        assert report["model"]["violations"] == 0, report["model"]
        assert report["corrupt_reads"] == 0
