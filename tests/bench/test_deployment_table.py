"""The deployment table: every row builds, and every figure builds rows.

``repro.bench.sim.DEPLOYMENTS`` is the one place a Tiera deployment is
described (a spec, its arguments, a feature set, a shard shape) and
``sim.build`` the one place one is assembled.  A generator that runs
over the table (a stateful model check, a rendered experiment list)
then reaches every deployment a figure measures — provided each figure
builds only rows, which the last two tests check.
"""

import pytest

from repro.bench.figures import FIGURES, Trial
from repro.bench.sim import DEPLOYMENTS, build
from repro.simcloud.resources import RequestContext


@pytest.mark.parametrize("name", sorted(DEPLOYMENTS))
def test_every_row_builds_with_its_defaults_and_round_trips(name):
    sim = build(name, seed=1)
    ctx = RequestContext(sim.clock)
    assert sim.op("put", "k", ctx).ok
    result = sim.op("get", "k", ctx)
    assert result.ok and result.value == sim.ledger.payload("k", 0)
    assert sim.ledger.violations == 0


def test_writeback_is_figure_3_with_an_eviction_chain():
    instance = build("writeback", seed=1).instance
    assert instance.name == "LowLatencyInstance"
    assert instance.eviction_chain == {"tier1": "tier2"}


def _strings(value):
    """Every string in a figure's (nested) parameters."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _strings(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _strings(item)


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_every_figure_builds_named_rows_only(name):
    figure = FIGURES[name]
    assert figure.deployments, f"{name} declares no deployment"
    assert set(figure.deployments) <= set(DEPLOYMENTS)
    # a drill's cells name their deployments in its parameters
    for scale in ("full", "smoke"):
        named = set(_strings(figure.params(scale))) & set(DEPLOYMENTS)
        assert named <= set(figure.deployments), (name, scale)


def test_a_figure_cannot_build_what_it_does_not_declare():
    trial = Trial("fig13", "smoke")
    with pytest.raises(ValueError, match="does not declare"):
        trial.build("write-through", 1)
    assert trial.build("high-durability", 1).instance.name == "HighDurability"
