"""One journal record per relocation, its payload stored as raw bytes.

A cross-tier move (``TieraInstance.relocate``) with a journal on is one
intent: the ``write`` intent of the copy that lands last names the
tiers the move leaves (``drop``), and its post-image already lacks
them.  ``remove_from_tier`` still drops each copy, in the write-back
scope alone, and a crash anywhere in the move rolls the whole move
forward.  A stored record is a JSON head, ``b"\\n"``, then the payload's
raw bytes; a record written as all JSON with ``data_b64`` still loads,
and the backup WAL keeps that all-JSON form.
"""

from __future__ import annotations

import base64
import json

import pytest

from repro.core.durability import (
    JOURNAL_PREFIX,
    IntentJournal,
    fsck,
    reopen_instance,
    simulate_crash,
)
from repro.core.objects import SORTED_JSON
from repro.core.server import TieraServer
from repro.core.templates import lru_tiered_instance
from repro.kvstore import MemoryStore
from repro.simcloud.cluster import Cluster
from repro.simcloud.errors import ProcessCrash
from repro.simcloud.faults import CrashPointInjector, FaultProfile
from repro.simcloud.resources import RequestContext
from repro.tiers.registry import TierRegistry

from tests.core import test_backup
from tests.core.conftest import build_instance

OBJ = 1000


def _blob(key: str) -> bytes:
    return (key.encode() * OBJ)[:OBJ]


class Rig:
    """Table 2's exclusive Memcached -> EBS -> S3 instance, two objects
    per bounded tier, journal on; ``o0``..``o3`` acked: o0 and o1 in
    EBS, o2 and o3 in Memcached."""

    def __init__(self):
        self.cluster = Cluster(seed=11)
        self.instance = lru_tiered_instance(
            TierRegistry(self.cluster), "LruTiered",
            mem=str(2 * OBJ), ebs=str(2 * OBJ), s3="1M",
        )
        self.instance.enable_durability()
        self.server = TieraServer(self.instance)
        self.acked = []
        for i in range(4):
            self.put(f"o{i}")

    def settle(self, ctx, slack=1.0):
        clock = self.cluster.clock
        clock.run_until(max(ctx.time, clock.now()) + slack)

    def put(self, key):
        ctx = RequestContext(self.cluster.clock)
        self.server.put_object(key, _blob(key), ctx=ctx).raise_for_error()
        self.acked.append(key)
        self.settle(ctx)

    def get(self, key):
        """A GET outside Memcached: the background rule promotes the
        object to Memcached and out of the tier it came from."""
        ctx = RequestContext(self.cluster.clock)
        self.server.get_object(key, ctx=ctx).raise_for_error()
        self.settle(ctx, slack=5.0)

    def reopen(self):
        instance = self.instance
        simulate_crash(instance)
        successor, _ = reopen_instance(
            name=instance.name,
            tiers=list(instance.tiers.ordered()),
            policy=instance.policy,
            clock=self.cluster.clock,
            metadata_store=instance.metadata_store,
            eviction_chain=instance.eviction_chain,
        )
        return successor


#: the operation under test, run on a fresh rig: one eviction cascade
#: (o2 Memcached -> EBS, then o0 EBS -> S3, to make room for o4), and
#: one exclusive promotion (o0 S3 -> Memcached, which evicts o3 to EBS
#: and o1 on to S3) after that cascade
SETUP = {"eviction-cascade": (), "exclusive-promotion": ("o4",)}
OPERATIONS = {
    "eviction-cascade": lambda rig: rig.put("o4"),
    "exclusive-promotion": lambda rig: rig.get("o0"),
}
#: each moved object's (source, destination)
MOVES = {
    "eviction-cascade": {"o0": ("tier2", "tier3"), "o2": ("tier1", "tier2")},
    "exclusive-promotion": {
        "o0": ("tier3", "tier1"),
        "o3": ("tier1", "tier2"),
        "o1": ("tier2", "tier3"),
    },
}


def _holders(instance, key):
    return [t.name for t in instance.tiers.ordered() if t.contains(key)]


def _durable(instance, keys):
    return {
        key for key in keys
        if any(t.durable and t.contains(key) for t in instance.tiers.ordered())
    }


def _rig(operation, injector=None):
    rig = Rig()
    for key in SETUP[operation]:
        rig.put(key)
    rig.instance.crash_points = injector
    return rig


def _reference(operation):
    """The uncrashed run: the operation's crash points, and at each the
    acked keys some durable tier holds."""
    durable_at = []
    rig = _rig(operation, CrashPointInjector(
        on_hit=lambda index, point: durable_at.append(
            (point, _durable(rig.instance, rig.acked))
        ),
    ))
    OPERATIONS[operation](rig)
    return rig, durable_at


class TestOneIntentPerRelocation:
    def test_a_cascade_journals_one_write_per_move_and_no_removal(self):
        rig = Rig()
        begun = []
        journal = rig.instance.durability.journal
        begin = journal.begin
        journal.begin = lambda record: begun.append(dict(record)) or begin(record)
        rig.put("o4")
        assert [
            (r["op"], r.get("key"), r.get("tier"), r.get("drop"))
            for r in begun
        ] == [
            ("scope", None, None, None),
            ("write", "o0", "tier3", ["tier2"]),
            ("write", "o2", "tier2", ["tier1"]),
            ("write", "o4", "tier1", None),
        ]
        # each post-image already lacks the tiers the move leaves
        assert [r["post_meta"]["locations"] for r in begun[1:]] == [
            ["tier3"], ["tier2"], ["tier1"],
        ]
        assert len(journal) == 0
        instance = rig.instance
        assert {k: instance.meta(k).copies() for k in ("o0", "o2")} == {
            "o0": ["tier3"], "o2": ["tier2"],
        }
        assert fsck(instance)["clean"]

    def test_without_a_journal_nothing_is_covered(self):
        cluster = Cluster(seed=11)
        instance = lru_tiered_instance(
            TierRegistry(cluster), "LruTiered",
            mem=str(2 * OBJ), ebs=str(2 * OBJ), s3="1M",
        )
        instance.crash_points = injector = CrashPointInjector()
        server = TieraServer(instance)
        for i in range(5):
            server.put_object(f"o{i}", _blob(f"o{i}")).raise_for_error()
        assert instance._cover is None
        assert "remove.begin" in [point for _, point in injector.schedule]

    def test_a_degraded_write_covers_nothing(self, registry, ctx):
        # tier2 refuses: the intent naming the drop aborts, the bytes go
        # to tier1, and the drop of tier3 journals itself.
        inst = build_instance(registry, [
            ("tier1", "Memcached", 10 ** 6),
            ("tier2", "EBS", 10 ** 7),
            ("tier3", "S3", None),
        ])
        inst.enable_durability()
        inst.enable_resilience()
        inst.create_object("k", 4)
        inst.write_to_tier("k", b"data", "tier3", ctx)
        service = inst.tiers.get("tier2").service
        registry.cluster.faults.inject(
            f"service:{service.name}", FaultProfile(error_rate=1.0)
        )
        begun = []
        journal = inst.durability.journal
        begin = journal.begin
        journal.begin = lambda record: begun.append(dict(record)) or begin(record)
        inst.relocate("k", ("tier2",), ctx, drop_from=("tier3",))
        assert [(r["op"], r["tier"], r.get("drop")) for r in begun] == [
            ("write", "tier2", ["tier3"]),
            ("write", "tier1", None),
            ("remove", "tier3", None),
        ]
        assert inst.meta("k").copies() == ["tier1"]
        assert len(journal) == 0 and inst._cover is None


class TestACrashAnywhereInAMove:
    """Crash at every boundary of one move, ``remove.data`` included,
    and reopen: fsck is clean, no object a durable tier held at the
    crash is lost, and every object lives in exactly one tier."""

    @pytest.mark.parametrize("operation", sorted(OPERATIONS))
    def test_every_boundary(self, operation):
        reference, durable_at = _reference(operation)
        points = [point for point, _ in durable_at]
        # one intent per move: the covered drops announce remove.data
        # but open no bracket of their own
        assert "remove.data" in points and "remove.begin" not in points
        for key, (_, destination) in MOVES[operation].items():
            assert _holders(reference.instance, key) == [destination]
        for index, (point, durable) in enumerate(durable_at):
            rig = _rig(operation, CrashPointInjector().arm_index(index))
            with pytest.raises(ProcessCrash):
                OPERATIONS[operation](rig)
            successor = rig.reopen()
            where = (operation, index, point)
            assert fsck(successor)["clean"], where
            assert len(successor.durability.journal) == 0, where
            for key in durable:
                assert successor.has_object(key), where
            for key in sorted(successor._meta):
                holders = _holders(successor, key)
                assert len(holders) == 1, where
                assert successor.meta(key).copies() == holders, where
                service = successor.tiers.get(holders[0]).service
                assert service.peek(key) == _blob(key), where
            # a move happened or it did not: never both tiers
            for key, ends in MOVES[operation].items():
                if successor.has_object(key):
                    assert tuple(_holders(successor, key)) in (
                        ends[:1], ends[1:]
                    ), where


PAYLOAD = b"raw\npayload\x00\xff"

#: the backup WAL line of ``k``'s tier2 write intent, as the all-JSON
#: journal format archived it (test_backup's write-through instance)
WAL_LINE = (
    b'{"op": "write", "record": {"data_b64": "cmF3CnBheWxvYWQA/w==", '
    b'"key": "k", "op": "write", "post_meta": {"access_count": 0, '
    b'"alias_of": null, "checksum": '
    b'"25f5aaf4d389295831fc37a53e3f9a8fce4e8c5cd2bab6f4fa2547543119779a", '
    b'"compressed": false, "created_at": 0.0, "dirty": false, '
    b'"encrypted": false, "key": "k", "last_access": 0.0, '
    b'"last_modified": 0.0, "locations": ["tier1", "tier2"], '
    b'"refcount": 0, "size": 13, "tags": [], "version": 0}, '
    b'"tier": "tier2"}, "seq": 2, "time": 0.0}'
)


def _all_json(blob: bytes) -> bytes:
    """A stored record rewritten in the all-JSON format (``data_b64``)."""
    head, raw, payload = blob.partition(b"\n")
    record = json.loads(head)
    if raw:
        record["data_b64"] = base64.b64encode(payload).decode("ascii")
    return SORTED_JSON.encode(record).encode("utf-8")


class TestJournalFormat:
    def test_a_record_is_a_json_head_then_raw_bytes(self):
        store = MemoryStore()
        journal = IntentJournal(store)
        record = {"op": "write", "key": "k", "tier": "t", "data": PAYLOAD}
        seq = journal.begin(record)
        assert record["data"] == PAYLOAD  # the caller's record is whole
        head = SORTED_JSON.encode({"op": "write", "key": "k", "tier": "t"})
        blob = store.get(JOURNAL_PREFIX + b"%012d" % seq)
        assert blob == head.encode("utf-8") + b"\n" + PAYLOAD
        assert IntentJournal(store).pending() == [(seq, record)]
        # a record without a payload is its JSON alone
        scope = journal.begin({"op": "scope", "rule": "r\nule"})
        assert b"\n" not in store.get(JOURNAL_PREFIX + b"%012d" % scope)

    def test_a_pending_write_rolls_forward_the_same_in_either_form(self):
        raw, all_json = (_recovered_after_a_crash(form) for form in (False, True))
        assert raw.state_digest() == all_json.state_digest()

    def test_the_wal_keeps_the_all_json_form_and_replays_it(self, tmp_path):
        cluster, instance, server = test_backup._build(tmp_path)
        manager = instance.backup
        manager.snapshot(kind="full")
        test_backup._put(cluster, server, "k", PAYLOAD)
        with open(manager._current_path, "rb") as handle:
            assert handle.read().splitlines()[-1] == WAL_LINE
        drill = manager.verify_restore()
        assert drill["ok"] and drill["replayed"] == 2, drill["error"]


def _recovered_after_a_crash(all_json: bool):
    """A write-through PUT killed after its tier2 bytes landed, reopened
    with its pending records stored raw or rewritten all-JSON."""
    from tests.core.test_durability import _build, _put

    store = MemoryStore()
    cluster, instance, server = _build(store)
    _put(cluster, server, "keep", b"acked")
    instance.crash_points = CrashPointInjector().arm("write.data", 1)
    with pytest.raises(ProcessCrash):
        _put(cluster, server, "wip", PAYLOAD)
    simulate_crash(instance)
    pending = sorted(k for k in store.keys() if k.startswith(JOURNAL_PREFIX))
    assert sum(b"\n" in store.get(k) for k in pending) == 2
    if all_json:
        for key in pending:
            store.put(key, _all_json(store.get(key)))
    successor, recovery = reopen_instance(
        name=instance.name, tiers=list(instance.tiers.ordered()),
        policy=instance.policy, clock=cluster.clock, metadata_store=store,
    )
    assert [r["op"] for r in recovery["replayed"]] == ["write", "write"]
    assert fsck(successor)["clean"]
    assert successor.tiers.get("tier2").service.peek("wip") == PAYLOAD
    return successor
