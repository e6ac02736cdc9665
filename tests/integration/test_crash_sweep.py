"""The crash-everywhere sweep: every boundary recovers, deterministically."""

from __future__ import annotations

import json

import pytest

from repro.bench.sim import CRASH_DEPLOYMENTS as DEPLOYMENTS, run_crash_sweep
from repro.core.durability import INTENTS

#: Boundaries swept in the quick per-deployment test.  The figures
#: table's ``crash_sweep`` row runs the full sweep; here a prefix keeps
#: the suite fast while still crossing journal/data/meta/commit edges.
QUICK_POINTS = 12


class TestCrashSweep:
    @pytest.mark.parametrize("deployment", DEPLOYMENTS)
    def test_every_swept_point_recovers(self, deployment):
        report = run_crash_sweep(deployment, max_points=QUICK_POINTS)
        assert report["summary"]["clean"] is True
        assert report["summary"]["failed"] == []
        assert report["swept"] == QUICK_POINTS
        assert report["truncated_to"] == QUICK_POINTS
        for point in report["points"]:
            assert point["crashed"] is True
            assert point["fsck_findings"] == 0
            assert point["digest_in_reference"] is True
            assert point["acked_lost"] == []

    def test_reference_run_is_clean_and_covers_all_point_kinds(self):
        report = run_crash_sweep("write-through", max_points=0)
        reference = report["reference"]
        assert reference["fsck_clean"] is True
        assert reference["crash_points"] > 50
        assert reference["acked_ops"] == 8

    def test_report_is_deterministic(self):
        first = run_crash_sweep("writeback", max_points=QUICK_POINTS)
        second = run_crash_sweep("writeback", max_points=QUICK_POINTS)
        assert json.dumps(first, sort_keys=True) == (
            json.dumps(second, sort_keys=True)
        )

    def test_the_sweep_has_teeth(self, monkeypatch):
        """A write intent that is journaled and then not redone must
        show: rows land only when an op ends, so a crash mid-op leaves
        the store without the write unless recovery rolls it forward."""
        monkeypatch.setitem(
            INTENTS, "write", INTENTS["write"]._replace(redo=lambda *args: None)
        )
        report = run_crash_sweep("write-through")
        assert report["summary"]["failed"]
        for failed in report["summary"]["failed"]:
            assert failed["point"].startswith("write.")

    def test_a_negative_cap_is_refused(self):
        """Regression: ``max_points=-3`` swept all but the last three
        boundaries."""
        with pytest.raises(ValueError, match="max_points"):
            run_crash_sweep("write-through", max_points=-3)

    def test_unknown_deployment_rejected(self):
        with pytest.raises(ValueError, match="unknown deployment"):
            run_crash_sweep("write-around")
