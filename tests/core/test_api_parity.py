"""StorageAPI parity: direct, sharded, and RPC façades must agree.

The same op script runs against a :class:`TieraServer`, a single-shard
:class:`ShardedTieraServer`, and a :class:`TieraClient` talking to a
:class:`TieraRpcServer` — each over its own fresh same-seed simulated
stack, so every envelope (including virtual-time latencies) must come
back identical.  ``OpResult.exception`` is excluded from equality, so a
captured in-process exception and its RPC-rehydrated twin compare equal.
"""

import pytest

from repro.core.api import BatchOp, BatchResult, ManagementAPI, StorageAPI
from repro.core.cluster import ClusterConfig
from repro.core.errors import BackpressureError, NoSuchObjectError
from repro.core.events import ActionEvent
from repro.core.policy import Rule
from repro.core.responses import Store
from repro.core.selectors import InsertObject
from repro.core.server import TieraServer
from repro.core.sharding import ShardedTieraServer
from repro.rpc import RpcError, TieraClient, TieraRpcServer
from repro.simcloud.cluster import Cluster
from repro.tiers.registry import TierRegistry
from tests.core.conftest import build_instance

SEED = 5
BIG = 64 * 1024 * 1024


def fresh_server(max_inflight=128) -> TieraServer:
    cluster = Cluster(seed=SEED)
    registry = TierRegistry(cluster)
    instance = build_instance(
        registry,
        [("tier1", "Memcached", BIG), ("tier2", "EBS", BIG)],
        rules=[Rule(
            ActionEvent("insert"),
            [Store(InsertObject(), ("tier1", "tier2"))],
            name="write-through",
        )],
        name="parity",
    )
    return TieraServer(instance, max_inflight=max_inflight)


@pytest.fixture
def direct() -> TieraServer:
    return fresh_server()


@pytest.fixture
def sharded() -> ShardedTieraServer:
    return ShardedTieraServer({"s1": fresh_server()})


@pytest.fixture
def rpc_client():
    rpc = TieraRpcServer(fresh_server(), port=0).start()
    client = TieraClient(rpc.host, rpc.port)
    yield client
    client.close()
    rpc.stop()


def run_script(facade):
    """The shared op script: single ops, errors, and mixed batches."""
    out = []
    out.append(facade.put_object("alpha", b"a" * 512))
    out.append(facade.put_object("tagged", b"t" * 256, tags=["hot", "backup"]))
    out.append(facade.get_object("alpha"))
    out.append(facade.get_object("ghost"))          # NO_SUCH_OBJECT
    out.append(facade.delete_object("tagged"))
    out.append(facade.delete_object("ghost"))       # NO_SUCH_OBJECT
    out.append(facade.put_many(
        [(f"bulk{i}", bytes([65 + i]) * 128) for i in range(6)],
        parallelism=3,
    ))
    out.append(facade.get_many(["bulk0", "bulk3", "missing"], parallelism=2))
    out.append(facade.execute_batch(
        [
            BatchOp.put("mix", b"m" * 64),
            BatchOp.get("bulk1"),
            BatchOp.delete("bulk2"),
            BatchOp.get("nope"),
        ],
        parallelism=4,
    ))
    return out


def flatten(outcomes):
    """Batches → comparable tuples + their item envelopes."""
    flat = []
    for item in outcomes:
        if isinstance(item, BatchResult):
            flat.append(("batch", item.latency, item.parallelism, item.code))
            flat.extend(item.results)
        else:
            flat.append(item)
    return flat


class TestParity:
    def test_all_facades_satisfy_the_protocol(self, direct, sharded, rpc_client):
        for facade in (direct, sharded, rpc_client):
            assert isinstance(facade, StorageAPI)

    def test_direct_and_sharded_agree(self, direct, sharded):
        assert flatten(run_script(direct)) == flatten(run_script(sharded))

    def test_direct_and_rpc_agree(self, direct, rpc_client):
        assert flatten(run_script(direct)) == flatten(run_script(rpc_client))

    @pytest.mark.parametrize("replication", [None, ClusterConfig()])
    def test_a_failed_tier_answers_alike_with_one_owner(
        self, direct, replication
    ):
        """A key with one owner gets that shard's envelope — its own
        refusal codes, a missing delete's ``NO_SUCH_OBJECT`` — whatever
        R the router was built with, and no hint is parked for it."""
        sharded = ShardedTieraServer(
            {"s1": fresh_server()}, replication=replication
        )
        outcomes = []
        for facade, shard in ((direct, direct), (sharded, sharded.shards["s1"])):
            facade.put_object("alpha", b"a" * 512).raise_for_error()
            for tier in shard.instance.tiers:
                tier.service.fail()
            outcomes.append(flatten(run_script(facade)))
        sharded.cluster.stop()
        assert outcomes[0] == outcomes[1]
        assert {r.error for r in outcomes[0] if hasattr(r, "error")} >= {
            "SERVICE_UNAVAILABLE", "NO_SUCH_OBJECT"
        }
        assert len(sharded.cluster.hints) == 0

    def test_missing_key_code_parity(self, direct, sharded, rpc_client):
        codes = set()
        types = set()
        for facade in (direct, sharded, rpc_client):
            result = facade.get_object("nope")
            assert not result.ok
            codes.add(result.error)
            types.add(result.error_type)
        assert codes == {"NO_SUCH_OBJECT"}
        assert types == {"NoSuchObjectError"}

    def test_batch_partial_failure_code_parity(self, direct, sharded, rpc_client):
        for facade in (direct, sharded, rpc_client):
            facade.put_object("real", b"v")
            batch = facade.get_many(["real", "fake"])
            assert batch.code == "PARTIAL_FAILURE"
            assert [r.ok for r in batch.results] == [True, False]

    def test_raise_for_error_raises_per_facade_exception(
        self, direct, sharded, rpc_client
    ):
        for facade, exc_type in (
            (direct, NoSuchObjectError),
            (sharded, NoSuchObjectError),
            (rpc_client, RpcError),
        ):
            with pytest.raises(exc_type) as err:
                facade.get_object("nope").raise_for_error()
            assert getattr(err.value, "code") == "NO_SUCH_OBJECT"


#: one short script per binary data verb, errors included.
VERB_SCRIPTS = {
    "put_object": lambda f: [
        f.put_object("k", b"v" * 64, tags=["t"]), f.put_object("k", b""),
    ],
    "get_object": lambda f: [
        f.put_object("k", b"v"), f.get_object("k"),
        f.get_object("k", prefer="tier2"), f.get_object("ghost"),
    ],
    "delete_object": lambda f: [
        f.put_object("k", b"v"), f.delete_object("k"), f.delete_object("k"),
    ],
    "execute_batch": lambda f: [f.execute_batch(
        [BatchOp.put("k", b"v", tags=[]), BatchOp.get("k"),
         BatchOp.get("ghost"), BatchOp.delete("ghost")],
        parallelism=2,
    )],
}


class TestDataVerbParityOverRpc:
    """Each data verb's binary round trip returns the direct façade's
    envelope, its error envelopes and codes included."""

    @pytest.mark.parametrize("verb", sorted(VERB_SCRIPTS))
    def test_the_verb_agrees(self, direct, rpc_client, verb):
        script = VERB_SCRIPTS[verb]
        outcomes = flatten(script(direct))
        assert outcomes == flatten(script(rpc_client))
        if verb != "put_object":
            assert "NO_SUCH_OBJECT" in {getattr(r, "error", None) for r in outcomes}

    def test_an_over_limit_batch_is_refused_alike(self):
        ops = [BatchOp.put(f"k{i}", b"v") for i in range(3)]
        direct = fresh_server(max_inflight=2)
        with pytest.raises(BackpressureError) as refused:
            direct.execute_batch(ops)
        rpc = TieraRpcServer(fresh_server(max_inflight=2), port=0).start()
        try:
            with TieraClient(rpc.host, rpc.port) as client:
                with pytest.raises(RpcError) as remote:
                    client.execute_batch(ops)
                assert (remote.value.code, remote.value.error_type) == (
                    refused.value.code, type(refused.value).__name__)
                assert flatten([client.execute_batch(ops[:2])]) == flatten(
                    [direct.execute_batch(ops[:2])])
        finally:
            rpc.stop()


def refusals(facade) -> float:
    """``tiera_backpressure_total{op="batch"}`` on the façade's own hub."""
    family = facade.obs.metrics.snapshot()["metrics"]["tiera_backpressure_total"]
    return family["samples"].get("op=batch", 0)


class TestBackpressureParity:
    def test_all_facades_refuse_with_the_same_code(self):
        items = [(f"k{i}", b"v") for i in range(5)]
        codes = []
        counted = []

        direct = fresh_server(max_inflight=4)
        with pytest.raises(BackpressureError) as err:
            direct.put_many(items)
        codes.append(err.value.code)
        counted.append(refusals(direct))

        sharded = ShardedTieraServer({"s1": fresh_server()}, max_inflight=4)
        with pytest.raises(BackpressureError) as err:
            sharded.put_many(items)
        codes.append(err.value.code)
        counted.append(refusals(sharded))

        replicated = ShardedTieraServer(
            {"s1": fresh_server()}, max_inflight=4,
            replication=ClusterConfig(replication_factor=1),
        )
        try:
            with pytest.raises(BackpressureError) as err:
                replicated.put_many(items)
        finally:
            replicated.cluster.stop()
        codes.append(err.value.code)
        counted.append(refusals(replicated))

        served = fresh_server(max_inflight=4)
        rpc = TieraRpcServer(served, port=0).start()
        try:
            with TieraClient(rpc.host, rpc.port) as client:
                with pytest.raises(RpcError) as err:
                    client.put_many(items)
                codes.append(err.value.code)
        finally:
            rpc.stop()
        counted.append(refusals(served))

        assert codes == ["BACKPRESSURE"] * 4
        assert counted == [1] * 4


class TestHeatParity:
    """The heat snapshot is part of the API surface: the same op script
    must yield the identical summary from every façade (the single-shard
    router merges through :func:`repro.obs.heat.merge_summaries`, the
    RPC façade through a JSON round-trip — neither may perturb it)."""

    HEAT_CONFIG = dict(top_k=8, hot_min=2, sample_interval=2.0)

    def _drive(self, facade):
        facade.put_object("alpha", b"a" * 512)
        facade.put_object("beta", b"b" * 256)
        for _ in range(4):
            facade.get_object("alpha")
        facade.get_object("beta")
        facade.delete_object("beta")

    def test_summaries_identical_across_facades(self, direct, sharded, rpc_client):
        summaries = []
        for facade in (direct, sharded, rpc_client):
            facade.configure("heat", **self.HEAT_CONFIG).raise_for_error()
            self._drive(facade)
            summaries.append(facade.invoke("heat", "summary").state)
        assert summaries[0] == summaries[1]
        assert summaries[0] == summaries[2]
        assert summaries[0]["enabled"] is True
        assert summaries[0]["hot_keys"][0] == "alpha"

    def test_disabled_snapshot_parity(self, direct, sharded, rpc_client):
        for facade in (direct, sharded, rpc_client):
            result = facade.invoke("heat", "summary")
            assert result.enabled is False and result.state == {}
            assert result.error == "FEATURE_DISABLED"

    def test_limit_truncates_hot_list_everywhere(self, direct, rpc_client):
        for facade in (direct, rpc_client):
            facade.configure("heat", **self.HEAT_CONFIG).raise_for_error()
            for key in ("a", "b", "c"):
                for _ in range(3):
                    facade.put_object(key, b"x" * 64)
        assert direct.invoke("heat", "summary", limit=1) == \
            rpc_client.invoke("heat", "summary", limit=1)
        assert len(direct.invoke("heat", "summary", limit=1).state["hot"]) == 1


class TestManagementParity:
    """configure/feature_status/invoke: one envelope shape from every façade.

    The single-shard router returns the shard's envelope unchanged and
    the RPC client rehydrates through ``ManagementResult.from_wire`` —
    both must compare equal to the direct façade's dataclass."""

    def test_all_facades_satisfy_the_protocol(self, direct, sharded, rpc_client):
        for facade in (direct, sharded, rpc_client):
            assert isinstance(facade, ManagementAPI)

    def test_configure_heat_envelopes_identical(
        self, direct, sharded, rpc_client
    ):
        results = [
            facade.configure("heat", top_k=8, hot_min=2)
            for facade in (direct, sharded, rpc_client)
        ]
        assert results[0] == results[1] == results[2]
        assert results[0].ok and results[0].enabled
        assert results[0].state["config"]["top_k"] == 8

    def test_configure_placement_envelopes_identical(
        self, direct, sharded, rpc_client
    ):
        results = [
            facade.configure("placement", objective="cost", interval=45.0)
            for facade in (direct, sharded, rpc_client)
        ]
        assert results[0] == results[1] == results[2]
        assert results[0].state["objective"] == "cost"
        statuses = [
            facade.feature_status("placement")
            for facade in (direct, sharded, rpc_client)
        ]
        assert statuses[0] == statuses[1] == statuses[2]
        assert statuses[0].state["interval"] == 45.0

    def test_unknown_feature_code_parity(self, direct, sharded, rpc_client):
        for action in ("configure", "feature_status"):
            results = [
                getattr(facade, action)("wormhole")
                for facade in (direct, sharded, rpc_client)
            ]
            assert results[0] == results[1] == results[2]
            assert not results[0].ok
            assert results[0].error == "UNKNOWN_FEATURE"

    def test_bad_config_code_parity(self, direct, sharded, rpc_client):
        results = [
            facade.configure("placement", objective="yolo")
            for facade in (direct, sharded, rpc_client)
        ]
        assert results[0] == results[1] == results[2]
        assert results[0].error == "BAD_CONFIG"
        assert results[0].enabled is False

    def test_placement_introspection_parity(self, direct, sharded, rpc_client):
        for facade in (direct, sharded, rpc_client):
            facade.configure("placement", interval=30.0).raise_for_error()
            facade.put_object("k", b"v" * 128)
        facades = (direct, sharded, rpc_client)
        docs = [facade.invoke("placement", "plan") for facade in facades]
        assert docs[0] == docs[1] == docs[2]
        assert docs[0].ok and docs[0].state["enabled"] is True
        statuses = [facade.feature_status("placement") for facade in facades]
        assert statuses[0] == statuses[1] == statuses[2]
        assert statuses[0].state["running"] is True

    def test_placement_disabled_shape_parity(self, direct, sharded, rpc_client):
        for facade in (direct, sharded, rpc_client):
            status = facade.feature_status("placement")
            assert status.ok and status.enabled is False
            assert status.state == {}
            for action in ("plan", "run"):
                refused = facade.invoke("placement", action)
                assert refused.enabled is False and refused.state == {}
                assert refused.error == "FEATURE_DISABLED"


class TestShardRouterTagPropagation:
    """Regression: the router's put used to take ``tags=()`` while
    TieraServer's took an iterable default — tags silently diverged
    depending on which façade a caller held."""

    def test_envelope_put_propagates_tags(self, sharded):
        sharded.put_object("k2", b"v", tags=["cold"])
        assert sharded.stat("k2").tags == {"cold"}

    def test_batch_put_propagates_tags_through_router(self, sharded):
        batch = sharded.execute_batch(
            [BatchOp.put("k3", b"v", tags=["bulk", "hot"])]
        )
        assert batch.ok
        assert sharded.stat("k3").tags == {"bulk", "hot"}

    def test_signatures_match_across_facades(self, direct, sharded):
        """Same call shape works identically on both in-process façades."""
        for facade in (direct, sharded):
            result = facade.put_object("sig", b"v", tags=["a"])
            assert result.latency > 0
            assert facade.stat("sig").tags == {"a"}
