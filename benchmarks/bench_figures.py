"""The paper's evaluation at full scale: one test per row of FIGURES.

Each row of :data:`repro.bench.figures.FIGURES` runs once inside
``benchmark.pedantic`` (so ``--benchmark-only`` times every figure),
prints and writes its table to ``benchmarks/results/<output>.txt``, and
fails on the first shape predicate that does not hold, by name::

    pytest benchmarks/bench_figures.py --benchmark-disable     # every row
    pytest benchmarks/bench_figures.py -k fig12 --benchmark-disable

``python -m repro bench`` runs the same rows at smoke scale.
"""

from __future__ import annotations

import pytest

from repro.bench.figures import FIGURES, run_figure
from repro.core.actions import Action
from repro.core.templates import write_through_instance
from repro.simcloud.cluster import Cluster
from repro.simcloud.resources import RequestContext
from repro.tiers.registry import TierRegistry
from repro.workloads.ycsb import record_payload


@pytest.mark.parametrize("name", list(FIGURES))
def test_figure(name, benchmark, emit):
    trials = []
    benchmark.pedantic(
        lambda: trials.append(run_figure(name, "full")), rounds=1, iterations=1
    )
    trial = trials[0]
    emit(trial.figure.output, trial.figure.render(trial))
    assert not trial.failed, f"{name}: predicates failed: {trial.failed}"


def test_fig18_rule_evaluation_microbenchmark(benchmark):
    """Measured Python cost of dispatching one action through a policy —
    the real number the simulated EVAL_OVERHEAD constant stands for."""
    size = FIGURES["fig18"].full["record_bytes"]
    cluster = Cluster(seed=42)
    instance = write_through_instance(
        TierRegistry(cluster), mem="64M", ebs="64M"
    )
    meta = instance.create_object("probe", size)
    payload = record_payload(0, 0, size)

    def dispatch_once():
        ctx = RequestContext(cluster.clock)
        action = Action(
            kind="insert", key="probe", meta=meta, tier="tier1", data=payload
        )
        instance.control.dispatch_action(action, ctx)
        meta.clear_copies()

    benchmark(dispatch_once)
