"""RPC server/client over real sockets (WallClock instances)."""

import socket
import struct
import threading
import time

import pytest

from repro.core.errors import TieraError
from repro.core.instance import TieraInstance
from repro.core.policy import Policy, Rule
from repro.core.events import ActionEvent
from repro.core.responses import Store
from repro.core.selectors import InsertObject
from repro.core.server import TieraServer
from repro.core.sharding import ShardedTieraServer
from repro.core.templates import write_through_instance
from repro.rpc import RpcError, TieraClient, TieraRpcServer
from repro.rpc.protocol import MAX_FRAME, read_frame, write_frame
from repro.simcloud.clock import WallClock
from repro.simcloud.cluster import Cluster
from repro.tiers.registry import TierRegistry


@pytest.fixture
def live_server():
    clock = WallClock()
    cluster = Cluster(clock=clock)
    registry = TierRegistry(cluster)
    tiers = [
        registry.create("Memcached", tier_name="tier1", size=64 * 1024 * 1024),
        registry.create("EBS", tier_name="tier2", size=64 * 1024 * 1024),
    ]
    instance = TieraInstance(
        name="rpc-test",
        tiers=tiers,
        policy=Policy([
            Rule(
                ActionEvent("insert"),
                [Store(InsertObject(), ("tier1", "tier2"))],
                name="write-through",
            )
        ]),
        clock=clock,
    )
    rpc = TieraRpcServer(TieraServer(instance), port=0).start()
    yield rpc
    rpc.stop()
    instance.shutdown()
    clock.shutdown()


@pytest.fixture
def client(live_server):
    with TieraClient(live_server.host, live_server.port) as conn:
        yield conn


class TestRpcRoundtrip:
    def test_ping(self, client):
        assert client.ping()

    def test_put_get(self, client):
        stored = client.put_object("k", b"remote bytes").raise_for_error()
        assert stored.latency >= 0
        assert client.get_object("k").raise_for_error().value == b"remote bytes"

    def test_binary_safety(self, client):
        payload = bytes(range(256)) * 8
        client.put_object("bin", payload).raise_for_error()
        assert client.get_object("bin").raise_for_error().value == payload

    def test_delete_and_contains(self, client):
        client.put_object("k", b"v").raise_for_error()
        assert client.contains("k")
        client.delete_object("k").raise_for_error()
        assert not client.contains("k")

    def test_stat(self, client):
        client.put_object("k", b"hello", tags=["web"]).raise_for_error()
        stat = client.stat("k")
        assert stat["size"] == 5
        assert stat["tags"] == ["web"]
        assert sorted(stat["locations"]) == ["tier1", "tier2"]

    def test_tags_and_keys(self, client):
        client.put_object("a", b"1", tags=["x"]).raise_for_error()
        client.put_object("b", b"2").raise_for_error()
        client.add_tag("b", "x")
        assert client.keys(tag="x") == ["a", "b"]
        assert client.keys() == ["a", "b"]

    def test_tiers_listing(self, client):
        tiers = client.tiers()
        assert [t["name"] for t in tiers] == ["tier1", "tier2"]
        assert all(t["available"] for t in tiers)

    def test_missing_key_error(self, client):
        with pytest.raises(RpcError) as excinfo:
            client.get_object("ghost").raise_for_error()
        assert excinfo.value.error_type == "NoSuchObjectError"

    def test_unknown_method(self, live_server, client):
        with pytest.raises(RpcError) as excinfo:
            client._call("explode")
        assert excinfo.value.error_type == "UnknownMethod"

    def test_the_retired_profile_verb_is_unknown(self, client):
        """Per-op wall cost is measured by benchmarks/perf; an old
        client's ``profile`` call gets the stable code, not a report."""
        with pytest.raises(RpcError) as excinfo:
            client._call("profile", reset=False)
        assert excinfo.value.code == "UNKNOWN_METHOD"


class TestIntrospection:
    def test_stats_snapshot(self, client):
        client.put_object("k", b"v").raise_for_error()
        snap = client.stats()
        requests = snap["metrics"]["tiera_requests_total"]["samples"]
        assert requests["op=put"] == 1
        assert snap["audit"]["appended"] >= 1
        assert snap["traces"]["enabled"] is False

    def test_stats_prometheus_text(self, client):
        client.put_object("k", b"v").raise_for_error()
        text = client.stats(format="prometheus")
        assert isinstance(text, str)
        assert "# TYPE tiera_requests_total counter" in text
        assert 'tiera_requests_total{op="put"} 1' in text

    def test_trace_toggle_and_fetch(self, client):
        result = client.trace(enable=True)
        assert result["enabled"] is True
        client.put_object("k", b"v").raise_for_error()
        client.get_object("k").raise_for_error()
        result = client.trace(limit=5, enable=False)
        assert result["enabled"] is False
        ops = [t["attrs"]["op"] for t in result["traces"]]
        assert ops == ["put", "get"]
        get_trace = result["traces"][-1]
        assert get_trace["attrs"]["served_by"] in ("tier1", "tier2")

    def test_zero_limits_return_nothing_and_negative_ones_are_refused(
        self, client
    ):
        """Regression: ``audit_limit=0`` returned the whole audit tail and
        ``limit=0`` every retained trace; a negative limit was sliced
        from the front instead of refused."""
        client.trace(enable=True)
        for i in range(4):
            client.put_object(f"k{i}", b"v").raise_for_error()
        assert client.stats(audit_limit=0)["audit"]["tail"] == []
        assert client.stats(audit_limit=2)["audit"]["tail"]
        assert client.trace(limit=0)["traces"] == []
        assert len(client.trace(limit=2)["traces"]) == 2
        for call in (lambda: client.stats(audit_limit=-1),
                     lambda: client.trace(limit=-2, enable=False)):
            with pytest.raises(RpcError) as excinfo:
                call()
            assert excinfo.value.code == "BAD_REQUEST"
        # The refused trace call toggled nothing.
        assert client.trace(limit=0)["enabled"] is True

    def test_health(self, client):
        client.put_object("k", b"v").raise_for_error()
        health = client.health()
        assert health["status"] == "ok"
        assert health["objects"] == 1
        assert health["rules_fired"] == {"write-through": 1}

    def test_cli_stats_summary(self, live_server, capsys):
        from repro.cli import main

        with TieraClient(live_server.host, live_server.port) as conn:
            conn.put_object("k", b"v").raise_for_error()
        assert main(
            ["stats", "--port", str(live_server.port)]
        ) == 0
        out = capsys.readouterr().out
        assert "instance rpc-test — status ok" in out
        assert "tier tier1 (memcached)" in out
        assert "rules fired: write-through×1" in out

    def test_cli_stats_prometheus(self, live_server, capsys):
        from repro.cli import main

        assert main(
            ["stats", "--port", str(live_server.port), "--format", "prometheus"]
        ) == 0
        assert "# TYPE tiera_tier_ops_total counter" in capsys.readouterr().out

    def test_cli_stats_json(self, live_server, capsys):
        import json

        from repro.cli import main

        assert main(
            ["stats", "--port", str(live_server.port), "--format", "json"]
        ) == 0
        snap = json.loads(capsys.readouterr().out)
        assert "metrics" in snap and "audit" in snap

    def test_cli_stats_connection_refused(self, capsys):
        from repro.cli import main

        assert main(["stats", "--port", "1"]) == 1
        assert "cannot connect" in capsys.readouterr().err


class TestConcurrency:
    def test_parallel_clients(self, live_server):
        errors = []

        def worker(worker_id):
            try:
                with TieraClient(live_server.host, live_server.port) as conn:
                    for i in range(20):
                        key = f"w{worker_id}-{i}"
                        conn.put_object(key, key.encode()).raise_for_error()
                        fetched = conn.get_object(key).raise_for_error()
                        assert fetched.value == key.encode()
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert errors == []

    def test_sequential_requests_one_connection(self, client):
        for i in range(50):
            client.put_object(f"k{i}", b"x").raise_for_error()
        assert len(client.keys()) == 50


class TestDurabilityVerbs:
    def test_fsck_clean_over_rpc(self, client):
        client.put_object("k", b"bytes").raise_for_error()
        report = client.invoke("durability", "fsck").state
        assert report["clean"] is True
        assert report["counts"]["findings"] == 0

    def test_fsck_repair_flag_round_trips(self, client):
        client.put_object("k", b"bytes").raise_for_error()
        report = client.invoke("durability", "fsck", repair=True).state
        assert report["repair"] is True

    def test_snapshot_restore_roundtrip(self, client):
        for i in range(3):
            client.put_object(f"obj{i}", b"payload-%d" % i).raise_for_error()
        result = client.invoke("durability", "snapshot").state
        manifest = result["manifest"]
        assert manifest["objects"] == 3
        assert result["archive"][:8]  # non-empty tar bytes

        client.delete_object("obj0").raise_for_error()
        client.put_object("obj9", b"post-snapshot write").raise_for_error()
        restored = client.invoke(
            "durability", "restore", archive=result["archive"]
        ).state
        assert restored["verified"] is True
        assert client.contains("obj0")
        assert not client.contains("obj9")
        assert client.get_object("obj1").raise_for_error().value == b"payload-1"

    def test_restore_rejects_garbage_archive(self, client):
        refused = client.invoke(
            "durability", "restore", archive=b"this is not a tar archive"
        )
        assert not refused.ok and refused.error == "BAD_CONFIG"

    def test_cli_fsck(self, live_server, capsys):
        from repro.cli import main

        code = main(["fsck", "--port", str(live_server.port)])
        assert code == 0
        assert '"clean": true' in capsys.readouterr().out

    def test_cli_snapshot_and_restore(self, live_server, capsys, tmp_path):
        from repro.cli import main

        with TieraClient(live_server.host, live_server.port) as conn:
            conn.put_object("cli-obj", b"cli bytes").raise_for_error()
        archive = str(tmp_path / "backup.tar")
        port = str(live_server.port)
        assert main(["snapshot", "--port", port, "--out", archive]) == 0
        assert "1 objects" in capsys.readouterr().out
        with TieraClient(live_server.host, live_server.port) as conn:
            conn.delete_object("cli-obj").raise_for_error()
        assert main(["restore", archive, "--port", port]) == 0
        assert '"verified": true' in capsys.readouterr().out
        with TieraClient(live_server.host, live_server.port) as conn:
            assert conn.get_object("cli-obj").raise_for_error().value == b"cli bytes"


class TestBackupVerbs:
    def test_disabled_store_reports_disabled(self, client):
        status = client.feature_status("backup")
        assert status.ok and status.enabled is False and status.state == {}
        refused = client.invoke("backup", "list")
        assert refused.enabled is False
        assert refused.error == "FEATURE_DISABLED"

    def test_lifecycle_round_trip(self, client, tmp_path):
        client.put_object("obj0", b"v0" * 64).raise_for_error()
        status = client.configure("backup", root=str(tmp_path / "bk"))
        assert status.ok and status.enabled is True

        full = client.invoke("backup", "snapshot", kind="full").state
        assert full["kind"] == "full"
        client.put_object("obj1", b"v1" * 64).raise_for_error()
        inc = client.invoke("backup", "snapshot").state
        assert inc["kind"] == "incremental"
        assert inc["parent"] == full["id"]

        listing = client.invoke("backup", "list").state["snapshots"]
        assert [e["id"] for e in listing] == [full["id"], inc["id"]]

        verify = client.invoke("backup", "verify").state
        assert verify["ok"] is True

        frozen = client.invoke(
            "backup", "mark_immutable", snapshot_id=full["id"]
        ).state
        assert frozen["immutable"] is True
        # keep_last=1 cannot orphan the chain: nothing is pruned.
        assert client.invoke("backup", "prune", keep_last=1).state[
            "pruned"
        ] == []

        status = client.feature_status("backup").state
        assert status["snapshots"] == 2
        assert status["last_verified_restore"]["ok"] is True

    def test_restore_to_seq_over_rpc(self, client, tmp_path):
        client.configure("backup", root=str(tmp_path / "bk")).raise_for_error()
        client.put_object("k", b"v1" * 64).raise_for_error()
        client.invoke("backup", "snapshot", kind="full").raise_for_error()
        client.put_object("k", b"v2" * 64).raise_for_error()
        target = client.feature_status("backup").state["wal"]["last_seq"]
        client.put_object("k", b"v3" * 64).raise_for_error()
        restore = client.invoke("backup", "restore", to_seq=target).state
        assert restore["to_seq"] == target
        assert restore["replayed"] > 0
        assert client.get_object("k").raise_for_error().value == b"v2" * 64

    def test_backup_errors_have_a_stable_code(self, client, tmp_path):
        client.configure("backup", root=str(tmp_path / "bk")).raise_for_error()
        refused = client.invoke("backup", "restore", to_seq=10 ** 9)
        assert not refused.ok and refused.error == "BACKUP_ERROR"
        with pytest.raises(TieraError) as excinfo:
            refused.raise_for_error()
        assert excinfo.value.code == "BACKUP_ERROR"

    def test_cli_backup_commands(self, live_server, capsys, tmp_path):
        from repro.cli import main

        port = str(live_server.port)
        # Not enabled yet: a clean error, not a traceback.
        assert main(["backup", "list", "--port", port]) == 1
        assert "not enabled" in capsys.readouterr().err

        with TieraClient(live_server.host, live_server.port) as conn:
            conn.put_object("cli-obj", b"cli bytes").raise_for_error()
            conn.configure("backup", root=str(tmp_path / "bk")).raise_for_error()

        assert main([
            "backup", "snapshot", "--port", port, "--kind", "full",
        ]) == 0
        assert '"kind": "full"' in capsys.readouterr().out
        assert main(["backup", "list", "--port", port]) == 0
        assert "#1 full:" in capsys.readouterr().out
        assert main(["backup", "verify", "--port", port]) == 0
        assert '"ok": true' in capsys.readouterr().out
        assert main(["backup", "prune", "--port", port,
                     "--keep-last", "5"]) == 0
        assert '"pruned": []' in capsys.readouterr().out


class TestClusterVerb:
    @pytest.fixture
    def cluster_rpc(self):
        from repro.bench.sim import build_shard_cluster
        from repro.core.cluster import ClusterConfig

        sim, router, _, _ = build_shard_cluster(
            shards=3, config=ClusterConfig(replication_factor=2)
        )
        rpc = TieraRpcServer(router, port=0).start()
        yield rpc, router
        rpc.stop()
        router.cluster.stop()

    def test_not_a_cluster_answers_disabled(self, client):
        """Regression: the old ``cluster`` verb answered a bare
        ``{"enabled": False}`` dict; the answer is an envelope now."""
        status = client.feature_status("cluster")
        assert status.ok and status.enabled is False and status.state == {}
        for action in ("fsck", "replay", "anti_entropy"):
            refused = client.invoke("cluster", action)
            assert refused.enabled is False and refused.state == {}
            assert refused.error == "FEATURE_DISABLED"

    def test_status_fsck_replay_and_anti_entropy(self, cluster_rpc):
        rpc, router = cluster_rpc
        with TieraClient(rpc.host, rpc.port) as conn:
            conn.put_object("ck", b"cluster bytes").raise_for_error()
            assert conn.get_object("ck").raise_for_error().value == b"cluster bytes"

            status = conn.feature_status("cluster").state
            assert status["replicas"] == 2
            assert set(status["shards"]) == set(router.shards)
            assert all(s == "up" for s in status["shards"].values())

            assert conn.invoke("cluster", "fsck").state["clean"]
            assert conn.invoke("cluster", "replay").state["replayed"] == 0
            assert conn.invoke("cluster", "anti_entropy").state[
                "divergent"] == 0
            assert conn.health()["cluster"]["hints"]["pending"] == 0

    def test_unknown_action_has_a_stable_code(self, cluster_rpc):
        rpc, _ = cluster_rpc
        with TieraClient(rpc.host, rpc.port) as conn:
            refused = conn.invoke("cluster", "explode")
            assert not refused.ok and refused.error == "UNKNOWN_ACTION"

    def test_instance_only_verbs_fail_cleanly_on_a_router(self, cluster_rpc):
        rpc, _ = cluster_rpc
        with TieraClient(rpc.host, rpc.port) as conn:
            with pytest.raises(RpcError) as excinfo:
                conn.tiers()
            assert excinfo.value.code == "BAD_REQUEST"

    def test_stats_summary_shows_shard_states_and_hints(
        self, cluster_rpc, capsys
    ):
        """Regression: ``repro stats`` died with ``KeyError: 'instance'``
        on a router; a replicated one adds each shard's detector state
        and the hint queue."""
        from repro.cli import main

        rpc, router = cluster_rpc
        with TieraClient(rpc.host, rpc.port) as conn:
            conn.put_object("ck", b"cluster bytes").raise_for_error()
        assert main(["stats", "--port", str(rpc.port)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("router — status ok at t=")
        assert lines[0].endswith(", 3 shards, 2 objects")
        assert [ln for ln in lines if ln.startswith("  shard ")] == [
            f"  shard {name}: ok, {int(router.shards[name].contains('ck'))}"
            " objects, up"
            for name in sorted(router.shards)
        ]
        assert ("  cluster: 2 replicas, 0 hints pending, "
                "0 migration intents pending") in lines


class TestShardRouterManagement:
    """Regression: over RPC to a shard router, ``resilience``, ``fsck``,
    ``snapshot``, ``restore`` and ``backup`` used to reach for the
    router's missing ``.instance`` and come back as ``BAD_REQUEST`` from
    a swallowed ``AttributeError``; through the feature table they fan
    out per shard."""

    @pytest.fixture
    def router_client(self):
        registry = TierRegistry(Cluster(clock=WallClock()))
        shards = {
            f"shard{i}": TieraServer(
                write_through_instance(registry, mem="8M", ebs="8M")
            )
            for i in range(4)
        }
        rpc = TieraRpcServer(ShardedTieraServer(shards), port=0).start()
        with TieraClient(rpc.host, rpc.port) as conn:
            yield conn, sorted(shards)
        rpc.stop()
        for server in shards.values():
            server.instance.shutdown()
        registry.cluster.clock.shutdown()

    def test_fsck_returns_a_clean_per_shard_nest(self, router_client):
        conn, names = router_client
        for i in range(16):
            conn.put_object(f"k{i}", b"v" * 32).raise_for_error()
        result = conn.invoke("durability", "fsck")
        assert result.ok
        assert sorted(result.state["shards"]) == names
        assert all(r["clean"] for r in result.state["shards"].values())

    def test_tag_verbs_reach_the_owning_shard(self, router_client):
        """Regression: ``keys(tag=...)`` and ``add_tag`` came back
        ``BAD_REQUEST: 'ShardedTieraServer' object has no attribute
        ...`` — the router lacked the verbs and ``_handle`` swallowed
        the ``AttributeError``."""
        conn, _ = router_client
        for i in range(12):
            conn.put_object(
                f"k{i:02d}", b"v", tags=["even"] if i % 2 == 0 else None
            ).raise_for_error()
        evens = [f"k{i:02d}" for i in range(0, 12, 2)]
        assert conn.keys(tag="even") == evens
        conn.add_tag("k01", "even")
        assert conn.keys(tag="even") == sorted(evens + ["k01"])
        assert "even" in conn.stat("k01")["tags"]
        assert conn.keys(tag="nobody") == []
        with pytest.raises(RpcError) as excinfo:
            conn.add_tag("ghost", "even")
        assert excinfo.value.code == "NO_SUCH_OBJECT"

    def test_stats_summary_renders_the_routers_health(
        self, router_client, capsys
    ):
        """Regression: ``repro stats`` read ``health['instance']``, which
        a router's health does not carry, and died with ``KeyError``."""
        import re

        from repro.cli import main

        conn, names = router_client
        conn.configure("heat").raise_for_error()
        for i in range(16):
            conn.put_object(f"k{i}", b"v" * 32).raise_for_error()
        port = conn._sock.getpeername()[1]
        assert main(["stats", "--port", str(port)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("router — status ok at t=")
        assert lines[0].endswith(", 4 shards, 16 objects")
        shard_lines = [ln for ln in lines if ln.startswith("  shard ")]
        pattern = re.compile(r"^  shard (\S+): ok, (\d+) objects$")
        matches = [pattern.match(ln) for ln in shard_lines]
        assert all(matches), shard_lines
        assert [m.group(1) for m in matches] == names
        assert sum(int(m.group(2)) for m in matches) == 16
        assert not any(ln.startswith("  cluster: ") for ln in lines)
        heat = [ln for ln in lines if ln.startswith("  heat: ")]
        assert len(heat) == 1 and "objects tracked" in heat[0]

    def test_tiers_refuses_with_an_explicit_message(self, router_client):
        conn, _ = router_client
        with pytest.raises(RpcError) as excinfo:
            conn.tiers()
        assert excinfo.value.code == "BAD_REQUEST"
        assert "shard router" in str(excinfo.value)
        assert "has no attribute" not in str(excinfo.value)

    def test_snapshot_restore_round_trips_every_key(self, router_client):
        """The router's snapshot is one bundle of the shards' archives
        and ``restore`` hands each shard its own member back."""
        conn, names = router_client
        payloads = {f"k{i}": b"v%d" % i * 8 for i in range(20)}
        for key, data in payloads.items():
            conn.put_object(key, data).raise_for_error()
        taken = conn.invoke("durability", "snapshot")
        assert taken.ok and isinstance(taken.state["archive"], bytes)
        assert sorted(taken.state["manifest"]["shards"]) == names
        for key in payloads:
            conn.put_object(key, b"overwritten").raise_for_error()
        conn.put_object("later", b"x").raise_for_error()

        restored = conn.invoke(
            "durability", "restore", archive=taken.state["archive"]
        )
        assert restored.ok and sorted(restored.state["shards"]) == names
        assert all(r["verified"] for r in restored.state["shards"].values())
        for key, data in payloads.items():
            assert conn.get_object(key).value == data
        assert conn.get_object("later").error == "NO_SUCH_OBJECT"

    def test_restore_refuses_an_archive_of_other_shards(self, router_client):
        """One instance's archive loaded into every shard would leave
        each holding keys it does not own: refused, nothing touched."""
        conn, names = router_client
        for i in range(20):
            conn.put_object(f"k{i}", b"v" * 32).raise_for_error()
        single = TieraServer(
            write_through_instance(
                TierRegistry(Cluster(seed=3)), mem="8M", ebs="8M"
            )
        ).invoke("durability", "snapshot").state["archive"]
        bundle = conn.invoke("durability", "snapshot").state["archive"]
        two = ShardedTieraServer({
            name: TieraServer(write_through_instance(
                TierRegistry(Cluster(seed=3)), mem="8M", ebs="8M"
            ))
            for name in names[:2]
        })
        for refused in (
            conn.invoke("durability", "restore", archive=single),
            conn.invoke("durability", "restore", archive=b"not a tar"),
            two.invoke("durability", "restore", archive=bundle),
        ):
            assert not refused.ok and refused.error == "BAD_CONFIG"
        assert all(conn.get_object(f"k{i}").ok for i in range(20))

    def test_resilience_and_backup_fan_out(self, router_client, tmp_path):
        conn, names = router_client
        enabled = conn.configure("resilience")
        assert enabled.ok and enabled.enabled
        assert sorted(enabled.state["shards"]) == names
        replay = conn.invoke("resilience", "replay")
        assert replay.ok
        assert all(
            r["replay_kicked"] == 0 for r in replay.state["shards"].values()
        )
        refused = conn.invoke("backup", "list")
        assert refused.error == "FEATURE_DISABLED"


class TestClientAfterAFailedCall:
    def test_a_timed_out_call_closes_the_connection(self, live_server, client):
        """Regression: the timed-out call's reply stayed unread, so each
        later call read its predecessor's and failed with ``response id
        mismatch``, forever.  Now the failure closes the connection and
        no reply reaches the wrong call."""
        client.put_object("k", b"v").raise_for_error()
        with TieraClient(live_server.host, live_server.port, timeout=0.2) as conn:
            with live_server._op_lock:
                with pytest.raises(socket.timeout):
                    conn.get_object("k")
            for _ in range(3):
                with pytest.raises(ConnectionError):
                    conn.get_object("k")
        assert client.get_object("k").raise_for_error().value == b"v"

    def test_a_closed_client_raises_connection_error(self, live_server):
        conn = TieraClient(live_server.host, live_server.port)
        conn.close()
        with pytest.raises(ConnectionError):
            conn.ping()


def _rpc_threads(before):
    return [
        t for t in threading.enumerate()
        if t not in before and t.name.startswith("tiera-rpc")
    ]


class TestServerStop:
    def test_stop_shuts_connected_clients(self):
        """Regression: ``stop()`` left a connected client served (its
        next ``ping()`` answered True) and its pool thread blocked on
        the idle connection, so the process could not exit."""
        before = set(threading.enumerate())
        clock = WallClock()
        instance = write_through_instance(
            TierRegistry(Cluster(clock=clock)), mem="8M", ebs="8M"
        )
        rpc = TieraRpcServer(TieraServer(instance), port=0).start()
        try:
            with TieraClient(rpc.host, rpc.port) as idle:
                assert idle.ping()
                assert _rpc_threads(before)
                rpc.stop()
                with pytest.raises(ConnectionError):
                    idle.ping()
            deadline = time.monotonic() + 1.0
            while _rpc_threads(before) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert _rpc_threads(before) == []
        finally:
            rpc.stop()
            instance.shutdown()
            clock.shutdown()


@pytest.fixture
def raw(live_server):
    """A bare socket to the live server, for frames no client sends."""
    sock = socket.create_connection((live_server.host, live_server.port), timeout=5)
    yield sock
    sock.close()


def _send(sock, header: bytes, payload: bytes = b""):
    sock.sendall(struct.pack(">II", len(header), len(payload)) + header + payload)
    return read_frame(sock)[0]


def _still_serves(sock) -> bool:
    write_frame(sock, {"id": "p", "method": "ping"})
    return read_frame(sock)[0] == {"id": "p", "result": "pong"}


class TestMalformedRequests:
    """Each probe used to get no reply, only EOF; now each gets a coded
    reply and the same connection serves on."""

    @pytest.mark.parametrize("header, request_id", [
        (b"[1, 2]", None),
        (b"5", None),
        (b'"put_object"', None),
        (b'{"id": 3, "method": "keys", "params": [1]}', 3),
        (b'{"id": 3, "method": "stats", "params": ["json"]}', 3),
        (b'{"id": 3, "method": "invoke", "params": []}', 3),
        (b'{"id": 3, "method": "invoke", "params": {"feature": "durability",'
         b' "action": "fsck", "params": [true]}}', 3),
        (b'{"id": 3, "method": "configure", "params": {"feature": "heat",'
         b' "options": "on"}}', 3),
        (b'{"id": 3, "method": "batch", "params": {"ops": [5]}}', 3),
        (b'{"id": 3, "method": "batch", "params": {"ops": [{"op": "get",'
         b' "key": 7}]}}', 3),
        (b'{"id": 3, "method": "put_object", "params": {"key": 5,'
         b' "data": [0, 1]}}', 3),
        (b'{"id": 3, "method": "put_object", "params": {"key": "k",'
         b' "data": [0, 1], "tags": [1]}}', 3),
        (b'{"id": 3, "method": "add_tag", "params": {"key": "k", "tag": []}}', 3),
        (b'{"id": 3, "method": "get_object", "params": {"key": "k",'
         b' "prefer": 1}}', 3),
        (b"{not json", None),
        (b"\xff\xfe\x00", None),
        (b"[" * 100000, None),
    ])
    def test_a_coded_reply_and_the_connection_serves_on(
        self, raw, header, request_id
    ):
        reply = _send(raw, header, b"x")
        assert reply["id"] == request_id
        assert reply["error"]["code"] == "BAD_REQUEST"
        assert _still_serves(raw)

    def test_an_int_key_does_not_poison_the_server(self, raw, client):
        """Regression: a PUT with ``"key": 5`` was acked into memory as
        an int-keyed row, and every later ``keys`` failed comparing it
        with str keys."""
        client.put_object("a", b"1").raise_for_error()
        reply = _send(
            raw, b'{"id": 1, "method": "put_object",'
                 b' "params": {"key": 5, "data": [0, 1]}}', b"x",
        )
        assert reply["error"]["code"] == "BAD_REQUEST"
        assert client.keys() == ["a"]

    @pytest.mark.parametrize("data", [b'"@@@"', b"[0, 9]", b"[-1, 1]", b'"eA=="'])
    def test_a_bad_payload_reference_stores_nothing(self, raw, client, data):
        """Regression: base64 ``"@@@"`` decoded to ``b""`` and was acked
        as a 0-byte object."""
        reply = _send(
            raw, b'{"id": 1, "method": "put_object",'
                 b' "params": {"key": "k", "data": ' + data + b"}}", b"abc",
        )
        assert reply["error"]["code"] == "BAD_REQUEST"
        assert not client.contains("k")
        assert _still_serves(raw)

    def test_an_unknown_method_on_a_bare_socket(self, raw):
        reply = _send(raw, b'{"id": 1, "method": ["ping"]}')
        assert reply["error"]["code"] == "UNKNOWN_METHOD"
        assert _still_serves(raw)

    @pytest.mark.parametrize("prefix", [
        struct.pack(">II", MAX_FRAME + 1, 0),
        struct.pack(">II", 0, MAX_FRAME + 1),
        struct.pack(">II", MAX_FRAME // 2 + 1, MAX_FRAME // 2 + 1),
        struct.pack(">II", 0xFFFFFFFF, 0xFFFFFFFF),
    ])
    def test_a_lost_frame_boundary_closes_the_connection(self, raw, prefix, client):
        raw.sendall(prefix)
        assert raw.recv(1) == b""
        assert client.ping()


class _CountingSocket:
    """The client's socket, counting the bytes of each direction."""

    def __init__(self, sock):
        self._sock = sock
        self.sent = self.received = 0

    def sendall(self, data):
        self.sent += len(data)
        self._sock.sendall(data)

    def recv(self, size):
        data = self._sock.recv(size)
        self.received += len(data)
        return data

    def close(self):
        self._sock.close()


class TestWireBytes:
    def test_a_4k_get_costs_its_bytes_plus_a_small_header(self, client):
        """Object bytes cross raw: no base64 (which alone is 4/3)."""
        value = bytes(range(256)) * 16
        client.put_object("k", value).raise_for_error()
        counter = client._sock = _CountingSocket(client._sock)
        assert client.get_object("k").raise_for_error().value == value
        assert counter.received <= 4096 + 512
        assert counter.sent <= 128
        counter.sent = counter.received = 0
        client.put_object("k", value).raise_for_error()
        assert counter.sent <= 4096 + 512

    def test_snapshot_archives_cross_as_payload(self, client):
        """``invoke``'s marked state (the archive) and params (restore's
        archive) ride in the payload section, byte-exact."""
        client.put_object("k", bytes(range(256))).raise_for_error()
        snap = client.invoke("durability", "snapshot").raise_for_error()
        archive = snap.state["archive"]
        assert isinstance(archive, bytes) and archive
        client.put_object("k", b"changed").raise_for_error()
        client.invoke("durability", "restore", archive=archive).raise_for_error()
        assert client.get_object("k").value == bytes(range(256))
