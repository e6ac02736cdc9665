"""The failover harness's two contracts, end to end.

1. **Determinism** — one seed, two runs, byte-identical reports: op
   envelopes, detector transitions, hint-replay and anti-entropy logs,
   and the final cluster state digest all derive from the seeded RNGs
   and the virtual clock (what the ``shard_failover`` figure row's
   digests pin).
2. **Self-healing** — killing 1 of 4 replicated shards mid-workload
   keeps availability at or above 99.9 % with zero acked-write loss,
   and after recovery the hints drain, anti-entropy converges to zero
   divergent groups, and cluster fsck comes back clean.
"""

import json

from repro.bench.sim import run_failover, run_migration_crash

#: Short but meaningful window: outage at t=30 for 45s plus a flapping
#: recovery, inside 120 driven seconds.
KWARGS = dict(
    records=16, duration=120.0, clients=2,
    outage_at=30.0, outage=45.0, flap_duration=20.0,
)


class TestSameSeedSameBytes:
    def test_failover_run_is_byte_reproducible(self):
        a = run_failover(seed=7, **KWARGS)
        b = run_failover(seed=7, **KWARGS)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        # The envelopes and repair logs specifically — the op-level
        # record of who failed, who was hinted, and who got repaired.
        assert a["envelopes"] == b["envelopes"]
        assert a["detector_transitions"] == b["detector_transitions"]
        assert a["replay_runs"] == b["replay_runs"]
        assert a["state_digest"] == b["state_digest"]
        # The run was not trivially empty: the victim actually died and
        # hints were actually parked.
        transitions = [
            (t["shard"], t["to"]) for t in a["detector_transitions"]
        ]
        assert (a["victim"], "down") in transitions
        assert a["hints"]["recorded"] > 0

    def test_different_seed_different_run(self):
        a = run_failover(seed=7, **KWARGS)
        b = run_failover(seed=8, **KWARGS)
        assert a["envelopes"]["digest"] != b["envelopes"]["digest"]


class TestSelfHealingInvariants:
    def test_shard_loss_availability_and_zero_acked_loss(self):
        report = run_failover(seed=7, **KWARGS)
        assert report["availability"]["overall"] >= 0.999
        # One ledger judges both: every in-run GET and every key's
        # post-convergence read is an acked write or a later attempt.
        assert report["model"]["checked"] > KWARGS["records"]
        assert report["model"]["violations"] == 0, report["model"]
        assert report["acked_write_loss"] == 0
        assert report["hints"]["pending"] == 0
        assert report["anti_entropy"]["final_divergent"] == 0
        assert report["fsck"]["clean"]

    def test_migration_crash_sweep_recovers_clean(self):
        report = run_migration_crash(seed=7, records=8)
        assert report["clean"]
        assert all(entry["crashed"] for entry in report["swept"])
        assert all(entry["fsck_clean"] for entry in report["swept"])
        assert all(entry["keys_readable"] for entry in report["swept"])
        assert report["model"]["violations"] == 0, report["model"]
