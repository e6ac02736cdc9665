"""Feature-table conformance: every ``(feature, action)`` in the registry
answers the same way from every façade.

For each entry of :data:`repro.core.features.FEATURES` the same script —
a few data ops, ``configure`` → ``feature_status`` → the action — runs
against the direct server, a 1-shard router, a 4-shard router and the
RPC client, each over its own fresh same-seed simulated stack.  The
1-shard and RPC envelopes must equal the direct ones (virtual-time
figures included), the 4-shard router must fold per the table's merge
rule, every envelope must survive the wire form, and the four error
classes must come back as stable codes, never as raises.
"""

import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core import features
from repro.core.api import ManagementAPI, ManagementResult
from repro.core.cluster import ClusterConfig
from repro.core.server import TieraServer
from repro.core.sharding import ShardedTieraServer
from repro.core.templates import write_through_instance
from repro.rpc import TieraClient, TieraRpcServer
from repro.simcloud.cluster import Cluster
from repro.tiers.registry import TierRegistry

SEED = 11
SHARDS = ["s0", "s1", "s2", "s3"]
#: every (feature, action); a feature without actions (slo) appears once
#: with ``None`` so its configure/status pair is still exercised.
PAIRS = [
    (feature.name, action.name)
    for feature in features.FEATURES.values() for action in feature.actions
] + [
    (feature.name, None)
    for feature in features.FEATURES.values() if not feature.actions
]
FACADES = ("direct", "one_shard", "four_shard", "rpc")


def fresh_server() -> TieraServer:
    registry = TierRegistry(Cluster(seed=SEED))
    return TieraServer(write_through_instance(registry, mem="4M", ebs="4M"))


class Stack:
    """One façade of each kind over fresh same-seed servers."""

    def __init__(self, kind: str, replication=None):
        self.kind = kind
        self._rpc = None
        self.router = None
        if kind == "direct":
            self.facade = fresh_server()
        elif kind == "rpc":
            self._rpc = TieraRpcServer(fresh_server(), port=0).start()
            self.facade = TieraClient(self._rpc.host, self._rpc.port)
        else:
            names = SHARDS if kind == "four_shard" else SHARDS[:1]
            self.router = self.facade = ShardedTieraServer(
                {name: fresh_server() for name in names},
                replication=replication,
            )

    def close(self):
        if self._rpc is not None:
            self.facade.close()
            self._rpc.stop()
        if self.router is not None and self.router.cluster is not None:
            self.router.cluster.stop()


@pytest.fixture
def stacks():
    built = {kind: Stack(kind) for kind in FACADES}
    yield built
    for stack in built.values():
        stack.close()


def options_for(feature: str, tmp_path, kind: str) -> dict:
    """What ``configure`` needs to switch ``feature`` on."""
    if feature == "backup":
        return {"root": str(tmp_path / kind)}
    if feature == "heat":
        return {"top_k": 8, "hot_min": 2}
    if feature == "placement":
        return {"objective": "cost", "interval": 30.0}
    return {}


def params_for(facade, feature: str, action: str) -> dict:
    """Valid parameters for ``feature.action`` (may prepare state)."""
    if (feature, action) == ("heat", "summary"):
        return {"limit": 2}
    if (feature, action) == ("durability", "fsck"):
        return {"repair": True}
    if (feature, action) == ("durability", "restore"):
        return {"archive": facade.invoke("durability", "snapshot").state["archive"]}
    if feature == "backup" and action != "snapshot":
        facade.invoke("backup", "snapshot", kind="full").raise_for_error()
    if (feature, action) == ("backup", "mark_immutable"):
        return {"snapshot_id": 1}
    if (feature, action) == ("backup", "prune"):
        return {"keep_last": 3}
    return {}


def run_script(stack: Stack, feature: str, action: str, tmp_path):
    facade = stack.facade
    for i in range(6):
        facade.put_object(f"key{i}", bytes([65 + i]) * 256).raise_for_error()
    for _ in range(3):
        facade.get_object("key0").raise_for_error()
    configured = facade.configure(
        feature, **options_for(feature, tmp_path, stack.kind)
    )
    facade.get_object("key1").raise_for_error()
    status = facade.feature_status(feature)
    if action is None:
        return configured, status
    acted = facade.invoke(
        feature, action, **params_for(facade, feature, action)
    )
    return configured, status, acted


def unmeasured(envelopes):
    """SLO ``envelopes`` with each objective's measured value blanked."""
    return [
        replace(envelope, state={**envelope.state, "objectives": [
            {**objective, "current": None}
            for objective in envelope.state["objectives"]
        ]})
        for envelope in envelopes
    ]


class TestRegistryConformance:
    def test_every_facade_implements_the_protocol(self, stacks):
        for stack in stacks.values():
            assert isinstance(stack.facade, ManagementAPI)

    @pytest.mark.parametrize("feature,action", PAIRS)
    def test_configure_status_action(self, stacks, tmp_path, feature, action):
        out = {
            kind: run_script(stack, feature, action, tmp_path)
            for kind, stack in stacks.items()
        }
        spec = features.FEATURES[feature]
        act = spec.action(action) if action is not None else None

        # 1-shard router and RPC answer exactly like the direct façade;
        # a router answers its own features (the cluster, the SLOs) itself.
        if not spec.router_level:
            assert out["one_shard"] == out["direct"]
        assert out["rpc"] == out["direct"]
        # Every envelope survives the wire form.
        for envelopes in out.values():
            for envelope in envelopes:
                assert ManagementResult.from_wire(envelope.to_wire()) == envelope
                assert envelope.feature == feature

        configured, status, *acted = out["direct"]
        if spec.configure is None:
            # The replicated cluster is fixed at construction.
            assert configured.error == "BAD_CONFIG"
            assert status.ok and not status.enabled and status.state == {}
            assert acted[0].error == "FEATURE_DISABLED"
            assert acted[0].state == {}
        else:
            assert configured.ok and configured.enabled, configured
            assert configured.action == "configure"
            assert status.ok and status.enabled and status.action == "status"
            for envelope in acted:
                assert envelope.ok and envelope.action == action, envelope
                for field in act.bytes_out:
                    assert isinstance(envelope.state[field], bytes)

        routers = ("one_shard", "four_shard")
        if spec.router_level and spec.configure is not None:
            # A router's own configurable feature (its SLOs, fed once
            # per client op) answers like the direct façade's, however
            # many shards sit behind it: one engine, the same samples.
            # Four shards serve each key from a stack of their own, so
            # only a measured latency may differ there.
            assert out["one_shard"] == out["direct"]
            assert unmeasured(out["four_shard"]) == unmeasured(out["direct"])
        elif spec.router_level:
            # Every router runs its membership through the cluster, at
            # R = 1 when it does not replicate: enabled, fixed at
            # construction.
            for kind in routers:
                router_configured, router_status, *router_acted = out[kind]
                assert router_configured.error == "BAD_CONFIG"
                assert router_status.ok and router_status.enabled
                assert router_status.state["replicas"] == 1
                for envelope in router_acted:
                    assert envelope.ok and envelope.enabled, envelope
                    assert envelope.action == action
        else:
            # The 4-shard router folds per the table's rule.
            wide = out["four_shard"]
            assert [e.ok for e in wide] == [e.ok for e in out["direct"]], wide
            assert [e.error for e in wide] == [e.error for e in out["direct"]]
            if spec.configure is not None:
                assert sorted(wide[1].state["shards"]) == SHARDS
                if act is not None and act.merge is None:
                    assert sorted(wide[2].state["shards"]) == SHARDS
                elif act is not None:
                    # a merge rule answers in the direct façade's shape
                    assert sorted(wide[2].state) == sorted(acted[0].state)

        # No management call loses data, whatever the façade.
        for stack in stacks.values():
            for i in range(6):
                got = stack.facade.get_object(f"key{i}")
                assert got.value == bytes([65 + i]) * 256, (stack.kind, got)

    @pytest.mark.parametrize("feature", sorted(features.FEATURES))
    def test_error_codes_are_stable_and_never_raise(self, stacks, feature):
        spec = features.FEATURES[feature]
        gated = [a.name for a in spec.actions if a.needs_enabled]
        for stack in stacks.values():
            facade = stack.facade
            for verb in (facade.configure, facade.feature_status):
                unknown = verb("wormhole")
                assert not unknown.ok and unknown.error == "UNKNOWN_FEATURE"
            unknown = facade.invoke("wormhole", "open")
            assert not unknown.ok and unknown.error == "UNKNOWN_FEATURE"
            missing = facade.invoke(feature, "no-such-action")
            assert not missing.ok and missing.error == "UNKNOWN_ACTION"
            # FEATURE_DISABLED only where the feature is off: a router
            # answers ``cluster`` itself.
            on = facade.feature_status(feature).enabled
            for action in gated:
                off = facade.invoke(feature, action)
                if on:
                    assert off.ok and off.enabled, off
                    continue
                assert not off.ok and off.error == "FEATURE_DISABLED"
                assert off.enabled is False
                assert off.state in ({}, {"shards": {n: {} for n in SHARDS}})
            for action in (a.name for a in spec.actions if not a.needs_enabled):
                bad = facade.invoke(feature, action, bogus=1)
                assert not bad.ok and bad.error == "BAD_CONFIG"
            if spec.configure is not None:
                bad = facade.configure(feature, bogus=1)
                assert not bad.ok and bad.error == "BAD_CONFIG"
                assert bad.enabled is False

    def test_backup_roots_are_per_shard_behind_a_wide_router(
        self, stacks, tmp_path
    ):
        """Shards cannot share a backup store: a multi-shard router
        gives each ``<root>/<shard>``; one shard keeps ``root`` as is."""
        wide, narrow = tmp_path / "wide", tmp_path / "narrow"
        assert stacks["four_shard"].facade.configure(
            "backup", root=str(wide)
        ).ok
        assert sorted(p.name for p in wide.iterdir()) == SHARDS
        assert stacks["one_shard"].facade.configure(
            "backup", root=str(narrow)
        ).ok
        assert (narrow / "wal").is_dir()

    def test_restore_takes_only_the_facades_own_kind_of_archive(self, stacks):
        """A router's bundle is not an instance's archive nor the other
        way round; both are refused before anything is wiped."""
        taken = {
            kind: stack.facade.invoke("durability", "snapshot").state["archive"]
            for kind, stack in stacks.items()
        }
        for kind, stack in stacks.items():
            stack.facade.put_object("kept", b"bytes").raise_for_error()
            other = taken["direct" if kind == "four_shard" else "four_shard"]
            for archive in (other, b"junk"):
                bad = stack.facade.invoke(
                    "durability", "restore", archive=archive
                )
                assert not bad.ok and bad.error == "BAD_CONFIG", (kind, bad)
            assert stack.facade.get_object("kept").value == b"bytes"

    def test_envelopes_from_another_version_still_decode(self):
        """``from_wire`` reads the fields it knows: an absent optional
        one defaults and an extra one is ignored."""
        wire = {"feature": "heat", "action": "status", "ok": True,
                "enabled": False, "since": "a later release"}
        assert ManagementResult.from_wire(wire) == ManagementResult(
            feature="heat", action="status"
        )

    def test_bad_param_on_an_enabled_feature(self, stacks):
        for stack in stacks.values():
            stack.facade.configure("heat").raise_for_error()
            for params in ({"bogus": 1}, {"limit": "many"}):
                bad = stack.facade.invoke("heat", "summary", **params)
                assert not bad.ok and bad.error == "BAD_CONFIG"
                assert bad.enabled is True


class TestRegistryIsDocumented:
    def test_api_md_names_every_feature_and_action(self):
        """docs/API.md's feature × action table is hand-written; a
        feature, action or typed parameter added to the registry must
        be added there too."""
        doc = (Path(__file__).parents[2] / "docs" / "API.md").read_text()
        table = doc[doc.index("### Features, actions and parameters"):]
        rows = {
            line.split("|")[1].strip(): line
            for line in table.splitlines() if line.startswith("| `")
        }
        for feature in features.FEATURES.values():
            row = rows[f"`{feature.name}`"]
            for option in feature.options:
                assert f"`{option.name}`" in row, (feature.name, option.name)
            for action in feature.actions:
                assert re.search(rf"`{action.name}[`(]", row), (
                    feature.name, action.name
                )
                for param in action.params:
                    assert re.search(rf"\b{param.name}\b", row), (
                        feature.name, action.name, param.name
                    )


class TestClusterActionsOnAReplicatedRouter:
    """``cluster`` lives on the router, so its actions only run for real
    behind a replicated one: in-process and over RPC must agree."""

    @pytest.fixture
    def pair(self):
        config = ClusterConfig(replication_factor=3)
        local = Stack("four_shard", replication=config)
        served = Stack("four_shard", replication=config)
        rpc = TieraRpcServer(served.router, port=0).start()
        client = TieraClient(rpc.host, rpc.port)
        yield local.facade, client
        client.close()
        rpc.stop()
        local.close()
        served.close()

    @pytest.mark.parametrize(
        "action", [a.name for a in features.FEATURES["cluster"].actions]
    )
    def test_router_and_rpc_agree(self, pair, action):
        answers = []
        for facade in pair:
            facade.put_object("ck", b"cluster bytes").raise_for_error()
            status = facade.feature_status("cluster")
            assert status.ok and status.enabled
            assert status.state["replicas"] == 3
            answers.append(facade.invoke("cluster", action))
        assert answers[0] == answers[1]
        assert answers[0].ok and answers[0].enabled, answers[0]
