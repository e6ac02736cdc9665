"""The one data-plane pipeline (docs/API.md, "One pipeline").

Every in-process façade runs its batches through
:func:`repro.core.api.run_batch` and its items through
:func:`repro.core.api.schedule_lanes`; every movement of an object
between shards is :func:`repro.core.cluster.transfer`.  These tests pin
the properties the three hand-written copies used to disagree on.
"""

import os
import re

import pytest

from repro.core import api
from repro.core.api import BatchOp
from repro.core.cluster import ClusterConfig, transfer
from repro.core.server import TieraServer
from repro.core.sharding import ShardedTieraServer
from repro.simcloud.resources import RequestContext
from tests.core.conftest import build_instance

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def make_shard(registry, name):
    return TieraServer(build_instance(
        registry,
        [(f"{name}-mem", "Memcached", 10 ** 7), (f"{name}-ebs", "EBS", 10 ** 8)],
        name=name,
    ))


def facades(registry):
    """One of each in-process façade: direct, routed, replicated."""
    names = ("a", "b", "c")
    yield "direct", make_shard(registry, "solo")
    yield "router", ShardedTieraServer(
        {n: make_shard(registry, f"r{n}") for n in names}
    )
    replicated = ShardedTieraServer(
        {n: make_shard(registry, f"c{n}") for n in names},
        replication=ClusterConfig(
            replication_factor=2, heartbeat_interval=1000.0,
            anti_entropy_interval=0.0,
        ),
    )
    yield "replicated", replicated
    replicated.cluster.stop()


class Boom(BaseException):
    """Like ProcessCrash: not a domain error, so it propagates."""


class TestBatchBracket:
    def test_root_is_closed_and_admission_released_when_an_item_raises(
        self, registry, monkeypatch
    ):
        """The bracket closes the batch root — with the error — and
        gives the admission back on *every* exit, on every façade."""
        def explode(self, op, ctx):
            if op.key == "k2":
                raise Boom("mid-batch")
            return original(self, op, ctx)

        original = TieraServer._apply_op
        monkeypatch.setattr(TieraServer, "_apply_op", explode)
        ops = [BatchOp.put(f"k{i}", b"v") for i in range(4)]
        for name, facade in facades(registry):
            ctx = RequestContext(facade.clock)
            with pytest.raises(Boom):
                facade.execute_batch(ops, ctx=ctx, trace=True)
            assert ctx.span is None and ctx.trace is None, name
            assert facade.admission.inflight == 0, name
            root = facade.obs.tracer.last()
            assert root.attrs["op"] == "batch", name
            assert root.error == "Boom: mid-batch", name
            for shard in getattr(facade, "shards", {}).values():
                assert shard.admission.inflight == 0, name

    def test_every_facade_reports_the_clamped_lane_count(self, registry):
        ops = [BatchOp.put(f"k{i}", b"v") for i in range(3)]
        for name, facade in facades(registry):
            assert facade.execute_batch(ops, parallelism=8).parallelism == 3
            assert facade.execute_batch([], parallelism=8).parallelism == 1
            with pytest.raises(ValueError):
                facade.execute_batch(ops, parallelism=0)

    def test_one_scheduler_one_bracket_one_failure_envelope(self):
        """The acceptance lint: each of these appears once in src/."""
        text = ""
        for folder, _, files in os.walk(SRC):
            for name in files:
                if name.endswith(".py"):
                    with open(os.path.join(folder, name)) as handle:
                        text += handle.read()
        assert text.count("key=lanes.__getitem__") == 1
        assert len(re.findall(r'start_request\(\s*"batch"', text)) == 1
        assert len(re.findall(r"error_type=type\(exc\)\.__name__", text)) == 1
        with open(os.path.join(SRC, "repro", "core", "sharding.py")) as handle:
            assert handle.read().count("self.cluster is") <= 1


class TestTransfer:
    def test_copies_bytes_and_tags_to_every_target(self, registry):
        source, one, two = (make_shard(registry, n) for n in ("s", "t1", "t2"))
        source.put_object("k", b"payload", tags=["keep"]).raise_for_error()
        written = transfer("k", source, [one, two])
        assert [put.ok for put in written] == [True, True]
        for target in (one, two):
            assert target.get_object("k").value == b"payload"
            assert target.stat("k").tags == {"keep"}

    def test_an_unreadable_or_unverified_source_writes_nothing(self, registry):
        source, target = make_shard(registry, "s"), make_shard(registry, "t")
        assert transfer("ghost", source, [target]) is None
        source.put_object("k", b"payload").raise_for_error()
        assert transfer("k", source, [target], verify="not-it") is None
        assert not target.contains("k")
        checksum = source.stat("k").checksum
        assert transfer("k", source, [target], verify=checksum)[0].ok


def test_failed_result_is_the_envelope_raise_for_error_undoes():
    exc = api.errors.NoSuchObjectError("k")
    result = api.failed_result("get", "k", exc, 0.25)
    assert (result.ok, result.error, result.latency) == (
        False, "NO_SUCH_OBJECT", 0.25
    )
    assert result.error_type == "NoSuchObjectError"
    with pytest.raises(api.errors.NoSuchObjectError):
        result.raise_for_error()
