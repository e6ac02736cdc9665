"""The simulation harness's reference model and step runner."""

import pytest

from repro.bench.sim import DEPLOYMENTS, Ledger, build, run_steps
from repro.simcloud.resources import RequestContext


def payload(key: str, version: int) -> bytes:
    return f"{key}@{version}".encode()


@pytest.fixture
def ledger():
    return Ledger(payload)


class TestLedger:
    def test_acked_write_is_the_only_allowed_value(self, ledger):
        assert ledger.put("k") == b"k@0"
        ledger.ack("k")
        assert ledger.allowed("k") == [b"k@0"]
        assert ledger.check("k", b"k@0")
        assert not ledger.check("k", None)
        assert (ledger.checked, ledger.violations) == (2, 1)
        assert ledger.offenders == ["k"]

    def test_unacked_attempt_is_allowed_beside_the_acked_value(self, ledger):
        ledger.put("k")
        ledger.ack("k")
        assert ledger.put("k") == b"k@1"  # sent, never acked: may have landed
        assert ledger.check("k", b"k@0")
        assert ledger.check("k", b"k@1")
        assert ledger.violations == 0

    def test_older_than_acked_is_refused(self, ledger):
        for _ in range(2):
            ledger.put("k")
            ledger.ack("k")
        assert not ledger.check("k", b"k@0")
        assert ledger.check("k", b"k@1")

    def test_ack_closes_the_failed_attempts_before_it(self, ledger):
        ledger.put("k")
        ledger.ack("k")
        ledger.put("k")  # v1 failed
        ledger.put("k")  # v2 acked
        ledger.ack("k")
        assert ledger.acked("k") == 2
        assert ledger.allowed("k") == [b"k@2"]

    def test_in_flight_delete_allows_absent(self, ledger):
        ledger.put("k")
        ledger.ack("k")
        ledger.delete("k")
        assert ledger.check("k", None)
        assert ledger.check("k", b"k@0")

    def test_never_acked_key_allows_absent(self, ledger):
        ledger.put("k")
        assert ledger.check("k", None)
        assert ledger.check("k", b"k@0")
        assert ledger.check("never-written", None)
        assert not ledger.check("never-written", b"anything")

    def test_acked_delete_refuses_resurrection(self, ledger):
        ledger.put("k")
        ledger.ack("k")
        ledger.delete("k")
        ledger.ack("k")
        assert ledger.acked("k") is None
        assert ledger.check("k", None)
        assert not ledger.check("k", b"k@0")

    def test_versions_keep_counting_across_a_delete(self, ledger):
        ledger.put("k")
        ledger.delete("k")
        ledger.ack("k")
        assert ledger.put("k") == b"k@1"

    def test_offenders_are_the_first_few_distinct_keys(self, ledger):
        for n in range(8):
            ledger.check(f"k{n}", b"bogus")
            ledger.check(f"k{n}", b"bogus")
        assert ledger.violations == 16
        assert ledger.offenders == [f"k{n}" for n in range(5)]


class TestSimOp:
    def test_ops_go_through_the_ledger(self):
        sim = build("write-through", seed=3)
        ctx = RequestContext(sim.clock)
        assert sim.op("put", "k", ctx).ok
        assert sim.ledger.acked("k") == 0
        assert sim.op("get", "k", ctx).ok
        assert sim.op("delete", "k", ctx).ok
        assert sim.ledger.acked("k") is None
        assert sim.op("get", "k", ctx).error == "NO_SUCH_OBJECT"  # checked: absent
        assert (sim.ledger.checked, sim.ledger.violations) == (2, 0)

    def test_a_wrong_read_is_a_violation(self):
        sim = build("write-through", seed=3)
        ctx = RequestContext(sim.clock)
        sim.server.put_object("k", b"not from the ledger", ctx=ctx).raise_for_error()
        sim.op("get", "k", ctx)
        assert sim.ledger.violations == 1 and sim.ledger.offenders == ["k"]


class TestRunSteps:
    def test_every_step_kind(self):
        sim = build("writeback", seed=3, features=("durability",))
        before = sim.clock.now()
        run_steps(sim, [
            ("put", "a"), ["get", "a"], ("advance", 45.0), ("checkpoint",),
            ("invoke", "durability", "fsck"), ("delete", "a"),
        ])
        assert sim.clock.now() >= before + 45.0
        assert sim.ledger.acks == 2 and sim.ledger.violations == 0

    def test_unknown_step_and_failed_step_raise(self):
        sim = build("write-through", seed=3)
        with pytest.raises(ValueError, match="unknown step"):
            run_steps(sim, [("explode",)])
        with pytest.raises(Exception, match="ghost"):
            run_steps(sim, [("get", "ghost")])

    def test_unknown_deployment_lists_the_table(self):
        with pytest.raises(ValueError, match="lru-tiered"):
            build("write-around", seed=3)
        assert set(DEPLOYMENTS) >= {
            "write-through", "cached-s3", "writeback", "lru-tiered", "replicated",
        }
