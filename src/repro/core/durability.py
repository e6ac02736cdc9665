"""Crash-consistent durability: intent journal, recovery, fsck, snapshots.

The prototype persists object metadata in BerkeleyDB and sells
durability as a policy property (§2.2, Figure 13), but metadata and tier
contents are mutated in separate steps: a process death between them
leaves orphaned replicas, ghost locations, or half-finished moves.  This
module closes that window with a classic redo-logging design:

* :class:`IntentJournal` — write-ahead intent records stored *in the
  instance's metadata store* (they ride on the same synced log the
  metadata does).  Every metadata-mutating primitive in
  :class:`~repro.core.instance.TieraInstance` journals its full redo
  plan (a JSON head, then the payload's raw bytes) before touching any
  tier, and deletes the record once the tier holds the bytes and the
  metadata store the rows (when the op's write-back scope closes).  A
  cross-tier move is one record: the ``write`` intent of the copy that
  lands last also names the tiers the move leaves.

* :class:`DurabilityLayer` — per-instance façade: a journaling hook and
  a redo per mutation kind (both declared once, in :data:`INTENTS`),
  lightweight *scope* records around multi-step policy responses,
  :meth:`~DurabilityLayer.recover` (roll every pending intent forward,
  then scrub), and :meth:`~DurabilityLayer.checkpoint`.

* :func:`fsck` — the scrub: cross-checks the metadata table against
  actual tier contents (ghosts, orphans, dangling aliases, checksum
  mismatches, lost objects, under-replication vs. the policy's declared
  durable insert targets) and optionally repairs what it finds.

* :func:`snapshot_archive` / :func:`restore_archive` — barman-style
  full-instance backup: metadata plus durable-tier contents in one
  deterministic tar archive, verified on restore against the manifest's
  state digest.

* :func:`simulate_crash` / :func:`reopen_instance` — what the
  simulation harness's crash sweep (``repro.bench.sim``,
  docs/SIMULATION.md) uses to kill a process mid-operation and boot a
  successor over the surviving state.

Recovery rolls *forward*, never back: an intent that reached the journal
is completed on reopen, one that did not leaves no trace.  So every
crash lands the instance in exactly a primitive-operation boundary state
— never in between.
"""

from __future__ import annotations

import base64
import io
import json
import tarfile
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.errors import NoSuchObjectError, TieraError
from repro.core.objects import SORTED_JSON, ObjectMeta, content_checksum
from repro.core.responses import Conditional, Copy, Move, Store, StoreOnce
from repro.obs.audit import AuditRecord
from repro.obs.registry import ChildCache
from repro.simcloud.errors import SimCloudError
from repro.simcloud.resources import RequestContext

#: Reserved key prefix for journal records inside the metadata store.
#: Object keys are UTF-8 strings, so a leading NUL byte can never
#: collide; ``_load_metadata`` skips everything under it.
JOURNAL_PREFIX = b"\x00tj\x00"

#: Snapshot archive format version (bump on incompatible layout change).
SNAPSHOT_FORMAT = 1


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _unb64(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"))


class IntentJournal:
    """Write-ahead intent records keyed ``<prefix><seq>`` in a KVStore.

    A record is begun before the operation's first side effect and
    deleted (committed) after its last; whatever is still present when
    an instance reopens is exactly the set of operations in flight at
    the crash.  A stored record is its ``sort_keys`` JSON head — so
    journal bytes are deterministic for identical histories — and, when
    it carries a payload (its ``data`` bytes), ``b"\n"`` and the raw
    bytes.  The head's JSON never holds a raw newline, so the first one
    splits the two.  A record stored before payloads were raw (all
    JSON, the payload as ``data_b64``) still loads, and redoes the same.
    """

    def __init__(self, store):
        self.store = store
        self._pending: Dict[int, Dict[str, object]] = {}
        self._next_seq = 0
        #: optional ``archiver(seq, record, applied)`` hook, called once
        #: for every record that leaves the journal: ``applied=True`` on
        #: commit (the redo plan took effect), ``False`` on abort.  The
        #: backup layer uses this to turn the journal into an archived
        #: write-ahead log for point-in-time restore.
        self.archiver = None
        for seq, record in self._scan():
            self._pending[seq] = record
            self._next_seq = max(self._next_seq, seq + 1)

    def _scan(self) -> Iterator[Tuple[int, Dict[str, object]]]:
        for key in sorted(self.store.keys()):
            if not key.startswith(JOURNAL_PREFIX):
                continue
            blob = self.store.get(key)
            if blob is None:
                continue
            head, raw, payload = blob.partition(b"\n")
            try:
                seq = int(key[len(JOURNAL_PREFIX):].decode("ascii"))
                record = json.loads(head.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                continue  # unreadable record: treat as never begun
            if raw:
                record["data"] = payload
            yield seq, record

    def _key(self, seq: int) -> bytes:
        return JOURNAL_PREFIX + b"%012d" % seq

    def begin(self, record: Dict[str, object]) -> int:
        seq = self._next_seq
        self._next_seq += 1
        payload = record.pop("data", None)
        blob = SORTED_JSON.encode(record).encode("utf-8")
        if payload is not None:
            blob = b"".join((blob, b"\n", payload))
            record["data"] = payload
        self.store.put(self._key(seq), blob)
        self._pending[seq] = record
        return seq

    def _finish(self, seq: int, applied: bool) -> None:
        record = self._pending.pop(seq, None)
        if record is None:
            return
        self.store.delete(self._key(seq))
        if self.archiver is not None:
            self.archiver(seq, record, applied)

    def commit(self, seq: int) -> None:
        self._finish(seq, applied=True)

    def abort(self, seq: int) -> None:
        """Retire a record whose redo plan was *not* applied.

        Storage-wise identical to :meth:`commit`; the distinction only
        matters to the archiver hook, which must never replay an
        aborted intent."""
        self._finish(seq, applied=False)

    def pending(self) -> List[Tuple[int, Dict[str, object]]]:
        """In-flight records, oldest first."""
        return sorted(self._pending.items())

    def clear(self) -> None:
        for seq in list(self._pending):
            self.abort(seq)

    def __len__(self) -> int:
        return len(self._pending)


# -- the intent table: every journaled mutation kind, declared once --------


def _install_post(instance, record) -> None:
    """Install a record's journaled post-operation metadata image."""
    doc = record.get("post_meta")
    if doc:
        instance.install_meta(ObjectMeta.from_doc(doc))


def _payload(record) -> bytes:
    """A record's payload: raw ``data``, or a pre-raw-bytes journal's
    and the backup WAL's ``data_b64``."""
    data = record.get("data")
    return _unb64(record["data_b64"]) if data is None else data


def wal_record(record: Dict[str, object]) -> Dict[str, object]:
    """``record`` as the backup WAL stores it: JSON all through, the
    payload as ``data_b64`` (what journal records were before their
    payload went raw, so WAL bytes are what they were)."""
    if "data" not in record:
        return record
    doc = dict(record)
    doc["data_b64"] = _b64(doc.pop("data"))
    return doc


def _plan_write(meta: ObjectMeta, tier_name: str, data: bytes, drop=()):
    # ``drop``: a relocation's tiers left behind (``instance.relocate``);
    # this intent covers their removals, so the post-image lacks them.
    post = meta.to_doc(with_copy=tier_name, without_copies=drop)
    post["size"] = len(data)
    record = {"tier": tier_name, "data": data, "post_meta": post}
    if drop:
        record["drop"] = list(drop)
    return record


def _redo_write(instance, record, ctx: RequestContext) -> None:
    _install_post(instance, record)
    key, tier_name = str(record["key"]), str(record["tier"])
    if not instance.tiers.has(tier_name):
        return  # no destination: a relocation's sources keep their copies
    instance.write_to_tier(key, _payload(record), tier_name, ctx)
    drop = [t for t in map(str, record.get("drop", ())) if instance.tiers.has(t)]
    if drop and instance.has_object(key):
        instance.relocate(key, (), ctx, drop_from=drop)


def _plan_remove(meta: ObjectMeta, tier_name: str):
    post = meta.to_doc(without_copies=(tier_name,))
    return {"tier": tier_name, "post_meta": post}


def _redo_remove(instance, record, ctx: RequestContext) -> None:
    _install_post(instance, record)
    key, tier_name = str(record["key"]), str(record["tier"])
    if instance.tiers.has(tier_name) and instance.has_object(key):
        instance.remove_from_tier(key, tier_name, ctx)


def _plan_rewrite(meta: ObjectMeta, data: bytes, updates):
    post = meta.to_doc()
    post["size"] = len(data)
    post.update(updates or {})
    return {
        "locations": meta.copies(),
        "data": data,
        "post_meta": post,
    }


def _redo_rewrite(instance, record, ctx: RequestContext) -> None:
    _install_post(instance, record)
    data = _payload(record)
    for tier_name in map(str, record.get("locations", [])):
        if instance.tiers.has(tier_name):
            instance.tiers.get(tier_name).put(str(record["key"]), data, ctx)


def _plan_delete(meta: ObjectMeta):
    # Tombstone-first: the intent names every tier that may still hold
    # bytes, so a crash mid-delete finishes the removal on reopen
    # instead of leaving orphan replicas.
    return {"locations": meta.copies()}


def _redo_delete(instance, record, ctx: RequestContext) -> None:
    key = str(record["key"])
    if instance.has_object(key):
        instance.delete_object(key, ctx)
        return
    # Metadata already gone: finish clearing any surviving replicas.
    for tier_name in map(str, record.get("locations", [])):
        if not instance.tiers.has(tier_name):
            continue
        tier = instance.tiers.get(tier_name)
        if tier.contains(key) and tier.available:
            tier.delete(key, ctx)


class Intent(NamedTuple):
    """One kind of journaled mutation: ``plan(meta, *args)`` gives the
    record's own fields (redo plan and post-operation metadata image)
    from the pre-state; ``redo(instance, record, ctx)`` rolls a record
    forward, changing nothing when its effects already landed; ``points``
    names the crash points the primitive's body announces."""

    plan: Callable[..., Dict[str, object]]
    redo: Callable[..., None]
    points: Tuple[str, ...]


#: The journaled mutations.  The instance primitive named by each row
#: runs its body inside the journal bracket (``instance._Journaled``),
#: :meth:`DurabilityLayer.replay` redoes a record through its row, and
#: any other ``op`` in a journal or the backup WAL is a marker.
INTENTS: Dict[str, Intent] = {
    "write": Intent(_plan_write, _redo_write, ("data", "meta")),
    "remove": Intent(_plan_remove, _redo_remove, ("data",)),
    "rewrite": Intent(_plan_rewrite, _redo_rewrite, ("data",)),
    "delete": Intent(_plan_delete, _redo_delete, ("data",)),
}

#: Every boundary the bracket and the bodies announce, in pass order.
INTENT_CRASH_POINTS: Tuple[str, ...] = tuple(
    f"{op}.{point}" for op, intent in INTENTS.items()
    for point in ("begin", "journaled", *intent.points, "commit")
)


def _journal_hook(op: str):
    plan = INTENTS[op].plan

    def journal(self, key: str, *args):
        """Journal this kind's intent for ``key``: its seq, or ``None``
        while replaying and when the key has no metadata yet (nothing
        to make consistent) — the two guards every kind shares."""
        meta = None if self.recovering else self.instance._meta.get(key)
        if meta is None:
            return None
        return self._begin({"op": op, "key": key, **plan(meta, *args)})

    return journal


class DurabilityLayer:
    """Journaling, recovery, and checkpointing for one instance.

    Enabled via :meth:`TieraInstance.enable_durability`; ``None`` (the
    default) keeps the data path byte-for-byte as before.
    """

    def __init__(self, instance, journal_store=None):
        self.instance = instance
        self.store = (
            journal_store if journal_store is not None
            else instance.metadata_store
        )
        self._owns_store = self.store is not instance.metadata_store
        self.journal = IntentJournal(self.store)
        #: set while :meth:`replay` runs; suppresses re-journaling.
        self.recovering = False
        self.last_recovery: Optional[Dict[str, object]] = None
        metrics = instance.obs.metrics
        self._records = metrics.counter(
            "tiera_journal_records_total", "Intent-journal records begun."
        )
        self._replays = metrics.counter(
            "tiera_journal_replayed_total",
            "Journal records rolled forward during recovery.",
        )
        self._record_cells = ChildCache(lambda op: self._records.child(op=op))

    # -- journaling hooks (called by the instance's primitives) ----------

    def _begin(self, record: Dict[str, object]) -> int:
        self._record_cells[str(record.get("op", "?"))].inc()
        return self.journal.begin(record)

    # One named hook per row (profilers, benchmarks/perf count by kind).
    journal_write, journal_remove, journal_rewrite, journal_delete = map(
        _journal_hook, INTENTS
    )

    def begin_scope(self, rule_name: str, origin: str):
        """Mark a multi-step policy response as in flight.

        Scope records carry no redo plan — the primitives inside them
        journal their own — but an open scope at recovery names the
        rule whose compound effect was cut short."""
        if self.recovering:
            return None
        return self._begin({"op": "scope", "rule": rule_name, "origin": origin})

    def commit(self, seq: int) -> None:
        self.journal.commit(seq)

    def abort(self, seq: int) -> None:
        self.journal.abort(seq)

    commit_scope = commit

    # -- recovery ---------------------------------------------------------

    def replay(self, records, ctx: RequestContext):
        """Roll forward, in order, each ``(seq, record)`` that carries a
        redo plan (markers — scopes, aborted intents — are passed over):
        the one redo dispatcher, under crash recovery and point-in-time
        restore alike.  Returns ``(replayed, errors)``, a ``{"seq", "op",
        "key"}`` per record plus, in ``errors``, why its redo failed —
        which does not strand the records behind it."""
        replayed: List[Dict[str, object]] = []
        errors: List[Dict[str, object]] = []
        self.recovering = True
        try:
            for seq, record in records:
                op = str(record.get("op", "?"))
                intent = INTENTS.get(op)
                if intent is None:
                    continue
                entry = {"seq": seq, "op": op, "key": str(record.get("key", ""))}
                try:
                    intent.redo(self.instance, record, ctx)
                except (TieraError, SimCloudError) as exc:
                    entry["error"] = f"{type(exc).__name__}: {exc}"
                    errors.append(entry)
                else:
                    replayed.append(entry)
        finally:
            self.recovering = False
        return replayed, errors

    def recover(self) -> Dict[str, object]:
        """Roll forward every pending intent, then scrub.

        Returns a deterministic report: which records were replayed,
        which policy responses were caught mid-flight, and the fsck
        findings (repaired in place)."""
        instance = self.instance
        ctx = RequestContext(instance.clock)
        pending = self.journal.pending()
        replayed, errors = self.replay(pending, ctx)
        incomplete = [
            {"rule": record.get("rule", ""), "origin": record.get("origin", "")}
            for _, record in pending if record.get("op") == "scope"
        ]
        for entry in replayed:
            self._replays.inc(op=entry["op"])
        for seq, _ in pending:
            self.journal.commit(seq)
        scrub = fsck(instance, repair=True, ctx=ctx)
        report = {
            "replayed": replayed,
            "incomplete_responses": incomplete,
            "errors": errors,
            "fsck": scrub,
        }
        instance.obs.audit.append(AuditRecord(
            time=instance.clock.now(),
            category="recovery",
            name="journal-replay",
            origin="reopen",
            foreground=False,
            responses=len(replayed),
            objects_moved=len(replayed),
            error=errors[0]["error"] if errors else None,
            detail={
                "replayed": len(replayed),
                "incomplete_responses": len(incomplete),
                "fsck_findings": scrub["counts"]["findings"],
            },
        ))
        self.last_recovery = report
        return report

    # -- maintenance ------------------------------------------------------

    def checkpoint(self) -> Dict[str, object]:
        """Compact the journal/metadata log (a named crash boundary)."""
        instance = self.instance
        instance._crash_point("checkpoint.begin")
        compacted = []
        stores = [instance.metadata_store]
        if self._owns_store:
            stores.append(self.store)
        for store in stores:
            compact = getattr(store, "compact", None)
            if compact is not None:
                compact()
                compacted.append(type(store).__name__)
        instance._crash_point("checkpoint.done")
        return {"compacted": compacted, "pending": len(self.journal)}

    def summary(self) -> Dict[str, object]:
        return {
            "enabled": True,
            "pending_journal": len(self.journal),
            "recovered": self.last_recovery is not None,
        }

    def close(self) -> None:
        if self._owns_store:
            self.store.close()


# -- fsck: the metadata/tier cross-check scrub ---------------------------


def _verifiable(meta: ObjectMeta) -> bool:
    """Bytes at rest should hash to ``meta.checksum``: plain objects
    only (compress/encrypt responses transform the stored bytes)."""
    return bool(
        meta.checksum
        and not meta.compressed
        and not meta.encrypted
        and meta.alias_of is None
    )


def insert_targets(instance) -> List[str]:
    """Durable tiers the policy writes every new object to.

    Walks the policy's ``insert`` action rules collecting
    Store/StoreOnce/Copy/Move destinations (through Conditional branches).
    Only durable targets count: volatile ones (memcached) may legally
    lose or evict their copy, so their absence is not a finding.
    """
    names: List[str] = []

    def walk(responses) -> None:
        for response in responses:
            if isinstance(response, (Store, StoreOnce, Copy, Move)):
                names.extend(response.to)
            elif isinstance(response, Conditional):
                walk(response.then)
                walk(response.otherwise)

    for rule in instance.policy.action_rules():
        if rule.event.kind == "insert":
            walk(rule.responses)
    out = []
    for name in names:
        if (
            instance.tiers.has(name)
            and instance.tiers.get(name).durable
            and name not in out
        ):
            out.append(name)
    return sorted(out)


def fsck(
    instance, repair: bool = False, ctx: Optional[RequestContext] = None
) -> Dict[str, object]:
    """Cross-check the metadata table against actual tier contents.

    Invariants checked, in order (each listed with its finding kind):

    1. ``stale-location`` — a location names a tier the instance no
       longer has.
    2. ``ghost`` — metadata says a tier holds the object; it does not.
    3. ``dangling-alias`` — an alias whose canonical metadata is gone.
    4. ``orphan`` / ``unrecorded`` — a tier holds bytes with no (or no
       matching) metadata.  Unrecorded copies that verify against the
       object's checksum are adopted; everything else is deleted.
    5. ``checksum-mismatch`` — a recorded copy's bytes do not hash to
       the recorded checksum.  Rewritten from a clean copy when one
       exists; when *no* copy verifies (the signature of an overwrite
       whose new bytes died with a volatile tier), the object is rolled
       back to its surviving content: the first-declared copy is adopted
       as truth, its checksum re-recorded, and divergent copies
       realigned — dropping would lose acknowledged data.
    6. ``lost`` — a non-alias object with zero locations.
    7. ``under-replicated`` — a durable tier the policy's insert rules
       target does not hold the object (queued on the resilience
       layer's repair queue when enabled, else re-copied inline).

    ``repair=False`` only reports.  With ``repair=True`` the findings
    are fixed in the order listed, so cascades (a dropped ghost location
    turning an object ``lost``) resolve within one pass and a second
    fsck comes back clean.
    """
    if ctx is None:
        ctx = RequestContext(instance.clock)
    findings: List[Dict[str, object]] = []

    def note(kind: str, key: str, tier: str = "", detail: str = "",
             action: str = "") -> None:
        findings.append({
            "kind": kind, "key": key, "tier": tier, "detail": detail,
            "repair": action if repair else "",
        })

    metas = instance._meta
    tier_names = set(instance.tiers.names())

    # 1+2: stale locations and ghosts.
    for key in sorted(metas):
        meta = metas[key]
        for tier_name in meta.copies():
            if tier_name not in tier_names:
                note("stale-location", key, tier_name,
                     "location names an unconfigured tier", "drop-location")
                if repair:
                    meta.drop_copy(tier_name)
                    instance.persist_meta(meta)
            elif not instance.tiers.get(tier_name).contains(key):
                note("ghost", key, tier_name,
                     "metadata lists a copy the tier does not hold",
                     "drop-location")
                if repair:
                    meta.drop_copy(tier_name)
                    instance.persist_meta(meta)

    # 3: dangling aliases.
    for key in sorted(list(metas)):
        meta = metas.get(key)
        if meta is None or meta.alias_of is None:
            continue
        if meta.alias_of not in metas:
            note("dangling-alias", key, "",
                 f"alias of missing object {meta.alias_of!r}", "drop-object")
            if repair:
                instance._drop_meta(key)

    # 4: orphaned / unrecorded tier contents.
    for tier in instance.tiers.ordered():
        for stored in sorted(tier.keys()):
            meta = metas.get(stored)
            if meta is None:
                note("orphan", stored, tier.name,
                     "tier holds bytes with no metadata", "delete-bytes")
                if repair:
                    tier.service.erase(stored)
            elif not meta.holds(tier.name):
                blob = tier.service.peek(stored)
                if _verifiable(meta) and content_checksum(blob) == meta.checksum:
                    note("unrecorded", stored, tier.name,
                         "verified copy missing from metadata", "adopt")
                    if repair:
                        meta.add_copy(tier.name)
                        instance.persist_meta(meta)
                else:
                    note("unrecorded", stored, tier.name,
                         "unverifiable copy missing from metadata",
                         "delete-bytes")
                    if repair:
                        tier.service.erase(stored)

    # 5: checksum mismatches among recorded copies.
    for key in sorted(metas):
        meta = metas[key]
        if not _verifiable(meta):
            continue
        good: Optional[bytes] = None
        bad: List[str] = []
        for tier_name in [t for t in meta.copies() if t in tier_names]:
            tier = instance.tiers.get(tier_name)
            if not tier.contains(key):
                continue  # ghost, handled above
            blob = tier.service.peek(key)
            if content_checksum(blob) == meta.checksum:
                if good is None:
                    good = blob
            else:
                bad.append(tier_name)
        if good is not None:
            for tier_name in bad:
                note("checksum-mismatch", key, tier_name,
                     "copy differs from recorded checksum",
                     "rewrite-from-clean-copy")
                if repair:
                    instance.tiers.get(tier_name).service.install(key, good)
        elif bad:
            # Every surviving copy mismatches the recorded checksum: an
            # overwrite recorded its new checksum but the new bytes died
            # with a volatile tier.  Roll the object back to surviving
            # content instead of dropping acknowledged data: adopt the
            # first-declared copy as truth, re-record its checksum, and
            # realign any copies that diverge from it.
            truth: Optional[bytes] = None
            for tier in instance.tiers.ordered():
                if tier.name in bad:
                    truth = tier.service.peek(key)
                    break
            for tier_name in bad:
                blob = instance.tiers.get(tier_name).service.peek(key)
                note("checksum-mismatch", key, tier_name,
                     "no clean copy; rolling back to surviving content",
                     "adopt-content" if blob == truth
                     else "rewrite-from-adopted-copy")
            if repair and truth is not None:
                instance._drop_dedup_entry(meta)
                meta.checksum = content_checksum(truth)
                meta.size = len(truth)
                instance.install_meta(meta)  # re-derives its dedup entry
                for tier_name in bad:
                    service = instance.tiers.get(tier_name).service
                    if service.peek(key) != truth:
                        service.install(key, truth)

    # 6: lost objects (and aliases orphaned by dropping them).
    for key in sorted(list(metas)):
        meta = metas.get(key)
        if meta is None or meta.alias_of is not None or meta.copies():
            continue
        note("lost", key, "", "no tier holds this object", "drop-object")
        if repair:
            instance._drop_meta(key)
    if repair:
        for key in sorted(list(metas)):
            meta = metas.get(key)
            if (
                meta is not None
                and meta.alias_of is not None
                and meta.alias_of not in metas
            ):
                note("dangling-alias", key, "",
                     f"alias of missing object {meta.alias_of!r}",
                     "drop-object")
                instance._drop_meta(key)

    # 7: under-replication vs. the policy's durable insert targets.
    targets = insert_targets(instance)
    if targets:
        for key in sorted(metas):
            meta = metas[key]
            if meta.alias_of is not None or not meta.copies():
                continue
            if meta.tags & {"version", "snapshot"}:
                continue  # side copies follow their own placement
            for tier_name in targets:
                if meta.holds(tier_name):
                    continue
                note("under-replicated", key, tier_name,
                     "durable policy target holds no copy", "recopy")
                if repair:
                    blob = _first_copy(instance, meta)
                    if blob is None:
                        continue
                    res = instance.resilience
                    if res is not None:
                        res.defer(key, tier_name)
                        res.schedule_replay(tier_name)
                    else:
                        try:
                            instance.write_to_tier(key, blob, tier_name, ctx)
                        except (TieraError, SimCloudError):
                            pass  # the finding stands; next scrub retries

    by_kind: Dict[str, int] = {}
    for finding in findings:
        kind = str(finding["kind"])
        by_kind[kind] = by_kind.get(kind, 0) + 1
    metrics = instance.obs.metrics
    metrics.counter(
        "tiera_fsck_runs_total", "fsck scrub passes executed."
    ).inc(repair=str(bool(repair)).lower())
    counter = metrics.counter(
        "tiera_fsck_findings_total", "fsck findings, by kind."
    )
    for kind in sorted(by_kind):
        counter.inc(by_kind[kind], kind=kind)
    report = {
        "clean": not findings,
        "repair": bool(repair),
        "findings": findings,
        "counts": {"findings": len(findings), "by_kind": by_kind},
    }
    instance.obs.audit.append(AuditRecord(
        time=instance.clock.now(),
        category="fsck",
        name="scrub",
        origin="repair" if repair else "check",
        foreground=False,
        detail={"findings": len(findings), "by_kind": dict(by_kind)},
    ))
    return report


def _first_copy(instance, meta: ObjectMeta) -> Optional[bytes]:
    """The object's bytes from its first-declared recorded tier, read
    at the service (no virtual time, no LRU side effects)."""
    for tier in instance.tiers.ordered():
        if meta.holds(tier.name):
            blob = tier.service.peek(meta.key)
            if blob is not None:
                return blob
    return None


# -- snapshot / restore (barman-style full-instance backup) ---------------


def archived_state(
    instance, include_volatile: bool = False
) -> Tuple[List[ObjectMeta], List[Tuple[str, Dict[str, bytes]]], str]:
    """The backup-eligible view of an instance's state.

    Returns ``(kept_metas, tier_rows, digest)``: object metadata with
    locations filtered to archived tiers (objects holding no archived
    copy are dropped; aliases kept only when their canonical is),
    ``(tier_name, {key: bytes})`` rows for *every* tier in declaration
    order (non-archived tiers contribute an empty dict, so the digest is
    directly comparable to :meth:`TieraInstance.state_digest` on a
    freshly restored target), and the state fingerprint over both.
    """
    archived_names = {
        t.name for t in instance.tiers.ordered()
        if t.durable or include_volatile
    }

    kept: List[ObjectMeta] = []
    kept_keys = set()
    for key in sorted(instance._meta):
        meta = instance._meta[key]
        if meta.alias_of is not None:
            continue  # second pass below, once canonicals are decided
        held = [t for t in meta.copies() if t in archived_names]
        if not held:
            continue
        copy = ObjectMeta.from_doc(meta.to_doc())
        copy.set_copies(held)
        kept.append(copy)
        kept_keys.add(key)
    for key in sorted(instance._meta):
        meta = instance._meta[key]
        if meta.alias_of is None:
            continue
        try:
            physical = instance.resolve_alias(key)
        except NoSuchObjectError:
            continue
        if physical in kept_keys:
            kept.append(ObjectMeta.from_doc(meta.to_doc()))
    kept.sort(key=lambda m: m.key)

    tier_rows: List[Tuple[str, Dict[str, bytes]]] = []
    for tier in instance.tiers.ordered():
        if tier.name in archived_names:
            contents = tier.service.contents()
        else:
            contents = {}
        tier_rows.append((tier.name, contents))
    meta_rows = [m.digest_row() for m in kept]
    from repro.core.instance import state_fingerprint

    return kept, tier_rows, state_fingerprint(meta_rows, tier_rows)


def pack_archive(members: List[Tuple[str, bytes]]) -> bytes:
    """Pack named members into a deterministic tar (zeroed timestamps,
    fixed order) — same-state archives are byte-identical."""
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w") as tar:
        for name, blob in members:
            info = tarfile.TarInfo(name)
            info.size = len(blob)
            info.mtime = 0
            info.uid = info.gid = 0
            info.uname = info.gname = ""
            tar.addfile(info, io.BytesIO(blob))
    return buf.getvalue()


def pack_snapshot(
    manifest: Dict[str, object],
    metas: List[ObjectMeta],
    tier_rows: List[Tuple[str, Dict[str, bytes]]],
) -> bytes:
    """The archive layout every snapshot — full or incremental —
    shares: the manifest, the metadata rows, one data member per tier."""
    members: List[Tuple[str, bytes]] = [
        ("manifest.json",
         json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")),
        ("metadata.jsonl", b"".join(m.to_json() + b"\n" for m in metas)),
    ]
    for tier_name, rows in tier_rows:
        lines = b"".join(
            json.dumps(
                {"key": k, "data_b64": _b64(rows[k])}, sort_keys=True
            ).encode("utf-8") + b"\n"
            for k in sorted(rows)
        )
        members.append((f"data/{tier_name}.jsonl", lines))
    return pack_archive(members)


def snapshot_archive(
    instance, include_volatile: bool = False
) -> Tuple[bytes, Dict[str, object]]:
    """Serialize metadata + durable-tier contents to a tar archive.

    Returns ``(archive_bytes, manifest)``.  The archive is deterministic
    (fixed member order, zeroed tar timestamps) so same-state snapshots
    are byte-identical.  Volatile tiers (memcached) are excluded unless
    ``include_volatile`` — their loss is the crash model, so a backup
    that promised to restore them would lie.
    """
    archived = [
        t for t in instance.tiers.ordered() if t.durable or include_volatile
    ]
    archived_names = {t.name for t in archived}
    kept, tier_rows, digest = archived_state(instance, include_volatile)

    manifest: Dict[str, object] = {
        "format": SNAPSHOT_FORMAT,
        "instance": instance.name,
        "created_at": instance.clock.now(),
        "include_volatile": include_volatile,
        "tier_order": instance.tiers.names(),
        "tiers": [
            {
                "name": t.name,
                "kind": t.kind,
                "durable": t.durable,
                "capacity": t.capacity,
                "objects": len(t.keys()),
                "bytes": t.used,
            }
            for t in archived
        ],
        "objects": len(kept),
        "state_digest": digest,
    }

    blob = pack_snapshot(manifest, kept, [
        (name, rows) for name, rows in tier_rows if name in archived_names
    ])
    instance.obs.metrics.counter(
        "tiera_snapshots_total", "Snapshot archives produced."
    ).inc()
    instance.obs.audit.append(AuditRecord(
        time=instance.clock.now(),
        category="snapshot",
        name="snapshot",
        origin="snapshot",
        foreground=False,
        detail={"objects": len(kept), "tiers": sorted(archived_names)},
    ))
    return blob, manifest


def _open_archive(blob: bytes) -> tarfile.TarFile:
    try:
        return tarfile.open(fileobj=io.BytesIO(blob))
    except tarfile.TarError as exc:
        raise ValueError(f"not a snapshot archive: {exc}") from exc


def _read_member(tar: tarfile.TarFile, name: str) -> bytes:
    try:
        member = tar.extractfile(name)
    except KeyError:
        member = None
    if member is None:
        raise ValueError(f"snapshot archive is missing {name!r}")
    return member.read()


def archive_manifest(blob: bytes) -> Dict[str, object]:
    with _open_archive(blob) as tar:
        return json.loads(_read_member(tar, "manifest.json"))


def unpack_archive(
    blob: bytes,
) -> Tuple[Dict[str, object], List[ObjectMeta], Dict[str, Dict[str, bytes]]]:
    """A snapshot archive — full or incremental — read back:
    ``(manifest, metas, {tier: {key: data}})``."""
    with _open_archive(blob) as tar:
        manifest = json.loads(_read_member(tar, "manifest.json"))
        if int(manifest.get("format", 0)) > SNAPSHOT_FORMAT:
            raise ValueError(
                f"snapshot format {manifest.get('format')} is newer than "
                f"this build supports ({SNAPSHOT_FORMAT})"
            )
        metas = [
            ObjectMeta.from_json(line)
            for line in _read_member(tar, "metadata.jsonl").splitlines()
            if line
        ]
        tier_data: Dict[str, Dict[str, bytes]] = {}
        for member in tar.getnames():
            if not member.startswith("data/"):
                continue
            rows = tier_data[member[len("data/"):-len(".jsonl")]] = {}
            for line in _read_member(tar, member).splitlines():
                if line:
                    doc = json.loads(line)
                    rows[doc["key"]] = _unb64(doc["data_b64"])
    return manifest, metas, tier_data


def restore_archive(instance, blob: bytes) -> Dict[str, object]:
    """Rebuild an instance's state from a snapshot archive.

    The target instance must have every tier the archive holds data
    for, with enough capacity.  All current state — tier contents,
    metadata, pending journal records — is replaced wholesale; the
    result is verified against the manifest's state digest.
    """
    manifest, metas, tier_data = unpack_archive(blob)

    # Validate shape before mutating anything.
    for entry in manifest["tiers"]:
        if entry["name"] not in tier_data:
            raise ValueError(
                f"snapshot archive is missing the {entry['name']!r} tier's data"
            )
    for name, rows in sorted(tier_data.items()):
        if not instance.tiers.has(name):
            raise ValueError(f"restore target has no tier {name!r}")
        tier = instance.tiers.get(name)
        total = sum(len(data) for data in rows.values())
        if tier.capacity is not None and total > tier.capacity:
            raise ValueError(
                f"tier {name!r} capacity {tier.capacity} cannot hold "
                f"{total} snapshot bytes"
            )

    for tier in instance.tiers.ordered():
        tier.service.wipe()
    instance.clear_meta()
    for key in list(instance.metadata_store.keys()):
        instance.metadata_store.delete(key)
    if instance.durability is not None:
        instance.durability.journal.clear()

    for meta in metas:
        instance.install_meta(meta)
    for name in sorted(tier_data):
        service = instance.tiers.get(name).service
        for key, data in sorted(tier_data[name].items()):
            service.install(key, data)

    digest = instance.state_digest()
    result = {
        "instance": instance.name,
        "snapshot_of": manifest.get("instance", ""),
        "objects": len(metas),
        "tiers": {name: len(rows) for name, rows in sorted(tier_data.items())},
        "state_digest": digest,
        "manifest_digest": manifest.get("state_digest", ""),
        "verified": digest == manifest.get("state_digest"),
    }
    instance.obs.metrics.counter(
        "tiera_restores_total", "Snapshot restores applied."
    ).inc(verified=str(bool(result["verified"])).lower())
    instance.obs.audit.append(AuditRecord(
        time=instance.clock.now(),
        category="snapshot",
        name="restore",
        origin="restore",
        foreground=False,
        error=None if result["verified"] else "state digest mismatch",
        detail={"objects": len(metas), "verified": result["verified"]},
    ))
    return result


def bundle_archives(archives: Dict[str, bytes]) -> bytes:
    """One archive of per-shard snapshot archives, deterministic like
    its members: what a multi-shard router's snapshot is."""
    return pack_archive([
        (f"shards/{name}.tar", archives[name]) for name in sorted(archives)
    ])


def shard_archive(blob: bytes, shard: str, shards: Sequence[str]) -> bytes:
    """``shard``'s own archive out of a :func:`bundle_archives` bundle,
    which must hold exactly ``shards`` — keys restored under another
    ring would sit on shards that do not own them."""
    with _open_archive(blob) as tar:
        held = sorted(
            name[len("shards/"):-len(".tar")] for name in tar.getnames()
            if name.startswith("shards/")
        )
        if held != sorted(shards):
            raise ValueError(
                f"archive holds shards {held or 'none (one instance)'}; "
                f"this router's are {sorted(shards)}"
            )
        return _read_member(tar, f"shards/{shard}.tar")


# -- crash simulation (used by the sweep harness and tests) ---------------


def simulate_crash(instance) -> None:
    """Kill the instance the way SIGKILL + node reboot would.

    Volatile tiers (memcached) lose their contents
    (:meth:`StorageService.crash`); durable services and the metadata
    store survive untouched — including any in-flight journal records,
    which is the whole point.  Scheduled background work dies with the
    process.
    """
    instance.control.shutdown()
    if instance.resilience is not None:
        instance.resilience.detach()
    instance.obs.metrics.remove_collector(instance._collect_gauges)
    instance.obs.metrics.forget(instance=instance.owner)
    instance.obs.heat.occupancy_sources.pop(instance.owner, None)
    instance.obs.heat.drop_sinks.pop(instance.owner, None)
    instance.meta_writeback.discard()  # a dead process flushes nothing
    cancel_all = getattr(instance.clock, "cancel_all", None)
    if cancel_all is not None:
        cancel_all()
    for tier in instance.tiers.ordered():
        tier.service.crash()


def reopen_instance(
    name,
    tiers,
    policy,
    clock,
    metadata_store,
    eviction_chain: Optional[Dict[str, str]] = None,
    backup_root: Optional[str] = None,
    **kwargs,
):
    """Boot a successor instance over crash-surviving state.

    Resets each tier's recency to its surviving keys in sorted order
    (access order died with the process), constructs the
    instance, and runs durability recovery.  Returns ``(instance,
    recovery_report)``.

    With ``backup_root``, the predecessor's backup store is re-attached
    *before* recovery runs, so journal records replayed during recovery
    land in the archived WAL — the point-in-time history has no hole
    across the crash.
    """
    from repro.core.instance import TieraInstance

    for tier in tiers:
        for key in sorted(tier.service.keys()):
            tier.service.touch(key)
    instance = TieraInstance(
        name=name,
        tiers=tiers,
        policy=policy,
        clock=clock,
        metadata_store=metadata_store,
        **kwargs,
    )
    if eviction_chain:
        instance.eviction_chain.update(eviction_chain)
    layer = instance.enable_durability(recover=False)
    if backup_root is not None:
        instance.enable_backups(backup_root, assume_continuity=True)
    layer.recover()
    return instance, layer.last_recovery
