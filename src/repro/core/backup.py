"""Backup lifecycle: incremental snapshots, PITR, scheduled verification.

PR 3 gave the instance crash consistency (an intent journal) and a
barman-style *full* snapshot.  This module grows those primitives into
an operational backup suite, the way barman grows pg_basebackup:

* **Changed-object incremental snapshots.**  The :class:`BackupManager`
  tracks which objects changed since the last snapshot — fed by the
  journal's archiver hook for data operations and the instance's
  ``on_meta_change`` hook for metadata-only edits (tags, aliases, fsck
  repairs) — and an incremental snapshot archives only those deltas.
  Restore reconstructs state from a full snapshot plus its chain of
  incrementals; every link carries the full-state digest at its capture
  point and the SHA-256 of its parent's archive, so a broken or
  tampered chain fails closed.

* **Journal archiving and point-in-time restore.**  Committed journal
  records are appended to an archived write-ahead log instead of being
  discarded.  ``restore(to_seq=…)`` / ``restore(to_time=…)`` applies
  the nearest preceding snapshot chain and replays archived records up
  to the target, deterministically: same store, same target, same
  bytes.  Aborted intents and policy scopes archive as markers, so the
  sequence numbering has no holes and a gap is always a real hole in
  history (a clean :class:`~repro.core.errors.BackupError`, never a
  silently wrong restore).

* **Retention and immutability.**  :meth:`BackupManager.prune` applies
  keep-last-N / keep-window policy but never orphans a chain: a full
  snapshot a surviving incremental depends on is protected, as is the
  newest full.  Snapshots marked immutable cannot be pruned at all —
  the attempt is a policy violation surfaced in audit and metrics.

* **Scheduled recovery verification.**  :meth:`verify_restore` rebuilds
  the latest chain into a scratch instance (own cluster, own clock),
  replays the WAL tail, and checks digest + fsck.  Driven from policy
  via the ``verifyBackup()`` response on a timer event, its result is
  the ``last_verified_restore`` surfaced in ``health()`` — "when did
  this instance last *verifiably* restore?" becomes a query.

Everything on disk is written atomically (temp + rename) and all
timestamps are virtual, so backup artifacts are deterministic for
seeded histories.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Tuple

from repro.core.durability import (
    INTENTS,
    SNAPSHOT_FORMAT,
    archive_manifest,
    archived_state,
    fsck,
    pack_snapshot,
    restore_archive,
    snapshot_archive,
    unpack_archive,
    wal_record,
)
from repro.core.errors import BackupError
from repro.obs.audit import AuditRecord
from repro.simcloud.resources import RequestContext

#: Backup store layout version (bump on incompatible change).
BACKUP_FORMAT = 1


def _atomic_write(path: str, blob: bytes) -> None:
    """Write-to-temp + rename: readers never observe a torn file."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as out:
        out.write(blob)
    os.replace(tmp, path)


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


class BackupManager:
    """Incremental snapshots, WAL archiving, PITR, retention, verification.

    Layered on an instance's :class:`~repro.core.durability.DurabilityLayer`
    and rooted at a directory::

        root/
          catalog.json                     # snapshot catalog (atomic)
          snapshots/snap_000001_full.tar   # deterministic tar archives
          wal/segment_000000000000_000000000063.jsonl
          wal/current.jsonl                # append-only open segment
          verify.json                      # last verification result
    """

    def __init__(
        self,
        instance,
        root: str,
        segment_records: int = 64,
        assume_continuity: bool = False,
    ):
        if instance.durability is None:
            raise BackupError("backups require the durability layer")
        self.instance = instance
        self.root = root
        self.segment_records = max(1, int(segment_records))
        self._snapshot_dir = os.path.join(root, "snapshots")
        self._wal_dir = os.path.join(root, "wal")
        self._catalog_path = os.path.join(root, "catalog.json")
        self._current_path = os.path.join(self._wal_dir, "current.jsonl")
        self._verify_path = os.path.join(root, "verify.json")

        self.snapshots: List[Dict[str, object]] = []
        self._next_id = 1
        #: archived WAL, seq -> entry (every begun seq exactly once)
        self._wal: Dict[int, Dict[str, object]] = {}
        #: high-water mark of the sequence space; survives WAL pruning
        #: (max(self._wal) would collapse when retention drops records)
        self._last_seq = -1
        #: entries living in the open segment (rotation bookkeeping)
        self._tail: List[Dict[str, object]] = []
        #: objects changed since the last snapshot
        self._dirty: set = set()
        #: a detached window may have missed changes: next snapshot full
        self._force_full = False
        self.last_verified_restore: Optional[Dict[str, object]] = None

        metrics = instance.obs.metrics
        self._snap_counter = metrics.counter(
            "tiera_backup_snapshots_total", "Backup snapshots taken, by kind."
        )
        self._snap_bytes = metrics.counter(
            "tiera_backup_snapshot_bytes_total",
            "Bytes written to snapshot archives, by kind.",
        )
        self._wal_counter = metrics.counter(
            "tiera_backup_wal_records_total",
            "Journal records archived to the backup WAL.",
        )
        self._restore_counter = metrics.counter(
            "tiera_backup_restores_total", "Backup restores applied."
        )
        self._verify_counter = metrics.counter(
            "tiera_backup_verifications_total",
            "Scheduled recovery verifications, by outcome.",
        )
        self._prune_counter = metrics.counter(
            "tiera_backup_pruned_total", "Snapshots removed by retention."
        )
        self._violation_counter = metrics.counter(
            "tiera_backup_policy_violations_total",
            "Refused attempts to delete immutable snapshots.",
        )

        self._load(assume_continuity)
        # Archived history owns the sequence space: a successor journal
        # rebuilt from (empty) pending records must not reuse seqs that
        # are already in the WAL.
        journal = instance.durability.journal
        journal._next_seq = max(journal._next_seq, self.last_seq + 1)
        journal.archiver = self._archive_record
        instance.on_meta_change = self._note_meta_change

    # -- store loading ------------------------------------------------------

    def _load(self, assume_continuity: bool) -> None:
        os.makedirs(self._snapshot_dir, exist_ok=True)
        os.makedirs(self._wal_dir, exist_ok=True)
        # A crash mid-atomic-write leaves only a temp file; discard it.
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for fname in filenames:
                if fname.endswith(".tmp"):
                    os.remove(os.path.join(dirpath, fname))

        if os.path.exists(self._catalog_path):
            try:
                with open(self._catalog_path, "rb") as handle:
                    catalog = json.loads(handle.read().decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                raise BackupError(f"unreadable backup catalog: {exc}") from exc
            self.snapshots = list(catalog.get("snapshots", []))
            self._next_id = int(catalog.get("next_id", len(self.snapshots) + 1))
        # An archive the catalog does not reference is a crash remnant
        # (died between writing the blob and committing the catalog).
        referenced = {str(e["file"]) for e in self.snapshots}
        for fname in os.listdir(self._snapshot_dir):
            if fname not in referenced:
                os.remove(os.path.join(self._snapshot_dir, fname))

        wal_files = sorted(
            fname for fname in os.listdir(self._wal_dir)
            if fname.startswith("segment_") and fname.endswith(".jsonl")
        )
        for fname in wal_files:
            self._read_wal_file(os.path.join(self._wal_dir, fname))
        if os.path.exists(self._current_path):
            self._tail = self._read_wal_file(self._current_path)

        if os.path.exists(self._verify_path):
            try:
                with open(self._verify_path, "rb") as handle:
                    self.last_verified_restore = json.loads(
                        handle.read().decode("utf-8")
                    )
            except (ValueError, UnicodeDecodeError):
                self.last_verified_restore = None

        self._last_seq = max(
            [-1]
            + list(self._wal)
            + [int(e["upto_seq"]) for e in self.snapshots]
        )
        active = self._active_snapshots()
        if active and not assume_continuity:
            # Changes made while no manager was attached were never
            # tracked; an incremental over that window would lie.
            self._force_full = True
        elif active:
            self._dirty = self._changed_since(int(active[-1]["upto_seq"]))

    def _read_wal_file(self, path: str) -> List[Dict[str, object]]:
        """Load one WAL file; a torn final line (crash mid-append) is
        dropped, anything else unreadable is a hard error."""
        entries: List[Dict[str, object]] = []
        with open(path, "rb") as handle:
            lines = handle.read().split(b"\n")
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                entry = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                if index >= len(lines) - 2 and path == self._current_path:
                    break  # torn tail: the record never fully landed
                raise BackupError(
                    f"corrupt WAL file {os.path.basename(path)!r}: {exc}"
                ) from exc
            self._wal[int(entry["seq"])] = entry
            entries.append(entry)
        return entries

    # -- change capture (journal archiver + metadata hook) ------------------

    @property
    def last_seq(self) -> int:
        """Highest sequence number ever archived (-1 before the first)."""
        return self._last_seq

    def _note_meta_change(self, key: str) -> None:
        self._dirty.add(key)

    def _changed_since(self, seq: int) -> set:
        """Keys the archived WAL shows mutated after ``seq``."""
        return {
            str(e["record"]["key"])
            for s, e in self._wal.items()
            if s > seq and e["op"] in INTENTS and e["record"].get("key")
        }

    def _archive_record(self, seq, record, applied) -> None:
        op = str(record.get("op", "?"))
        if not applied:
            # Never replay an intent whose redo plan did not take
            # effect; archive a marker so the seq space stays dense.
            op, record = "noop", {"was": op}
        elif op == "scope":
            record = {
                "rule": record.get("rule", ""),
                "origin": record.get("origin", ""),
            }
        elif record.get("key"):
            self._dirty.add(str(record["key"]))
            record = wal_record(record)
        entry = {"seq": seq, "time": self.instance.clock.now(),
                 "op": op, "record": record}
        self._wal[int(seq)] = entry
        self._last_seq = max(self._last_seq, int(seq))
        line = json.dumps(entry, sort_keys=True).encode("utf-8") + b"\n"
        with open(self._current_path, "ab") as out:
            out.write(line)
        self._tail.append(entry)
        self._wal_counter.inc()
        if len(self._tail) >= self.segment_records:
            self._rotate()

    def _rotate(self) -> None:
        """Seal the open segment.  Segment first, then truncate: a crash
        between the two leaves duplicates, which reload by seq dedupes."""
        if not self._tail:
            return
        first = int(self._tail[0]["seq"])
        last = int(self._tail[-1]["seq"])
        blob = b"".join(
            json.dumps(e, sort_keys=True).encode("utf-8") + b"\n"
            for e in self._tail
        )
        segment = os.path.join(
            self._wal_dir, "segment_%012d_%012d.jsonl" % (first, last)
        )
        _atomic_write(segment, blob)
        _atomic_write(self._current_path, b"")
        self._tail = []

    def _rewrite_wal(self) -> None:
        """Rewrite the on-disk WAL to exactly ``self._wal`` (after a
        truncation or retention cutoff)."""
        for fname in os.listdir(self._wal_dir):
            if fname.startswith("segment_") and fname.endswith(".jsonl"):
                os.remove(os.path.join(self._wal_dir, fname))
        entries = [self._wal[seq] for seq in sorted(self._wal)]
        blob = b"".join(
            json.dumps(e, sort_keys=True).encode("utf-8") + b"\n"
            for e in entries
        )
        _atomic_write(self._current_path, blob)
        self._tail = entries

    # -- catalog ------------------------------------------------------------

    def _save_catalog(self) -> None:
        blob = json.dumps(
            {
                "format": BACKUP_FORMAT,
                "next_id": self._next_id,
                "snapshots": self.snapshots,
            },
            indent=2, sort_keys=True,
        ).encode("utf-8")
        _atomic_write(self._catalog_path, blob)

    def _active_snapshots(self) -> List[Dict[str, object]]:
        """Catalog entries on the current timeline, oldest first."""
        return [e for e in self.snapshots if not e.get("retired")]

    def _entry(self, snapshot_id: int) -> Dict[str, object]:
        for entry in self.snapshots:
            if int(entry["id"]) == int(snapshot_id):
                return entry
        raise BackupError(f"no snapshot #{snapshot_id} in the catalog")

    def list_snapshots(self) -> List[Dict[str, object]]:
        return [dict(e) for e in self.snapshots]

    def mark_immutable(self, snapshot_id: int) -> Dict[str, object]:
        entry = self._entry(snapshot_id)
        entry["immutable"] = True
        self._save_catalog()
        return dict(entry)

    # -- snapshots ----------------------------------------------------------

    def snapshot(
        self, kind: str = "auto", immutable: bool = False
    ) -> Dict[str, object]:
        """Take a snapshot; returns its catalog entry.

        ``kind`` is ``"full"``, ``"incremental"``, or ``"auto"`` (an
        incremental when a usable parent exists, else a full).  The
        archive lands atomically: a crash mid-write leaves a temp file
        the next attach discards, never a torn archive the catalog
        trusts.
        """
        instance = self.instance
        active = self._active_snapshots()
        parent = active[-1] if active else None
        if kind not in ("auto", "full", "incremental"):
            raise BackupError(f"unknown snapshot kind {kind!r}")
        if kind == "incremental":
            if parent is None:
                raise BackupError("incremental snapshot needs a parent")
            if self._force_full:
                raise BackupError(
                    "change tracking has a gap (store was detached); "
                    "a full snapshot is required first"
                )
        if kind == "auto":
            kind = (
                "incremental" if parent is not None and not self._force_full
                else "full"
            )

        instance._crash_point("backup.snapshot.begin")
        if kind == "full":
            blob, manifest = snapshot_archive(instance)
            parent = None
        else:
            blob, manifest = self._incremental_archive(parent)
        snapshot_id = self._next_id
        fname = "snap_%06d_%s.tar" % (snapshot_id, kind)
        path = os.path.join(self._snapshot_dir, fname)
        tmp = path + ".tmp"
        with open(tmp, "wb") as out:
            out.write(blob)
        instance._crash_point("backup.snapshot.temp")
        os.replace(tmp, path)

        entry: Dict[str, object] = {
            "id": snapshot_id,
            "file": fname,
            "kind": kind,
            "parent": int(parent["id"]) if parent is not None else None,
            "base_seq": (
                int(parent["upto_seq"]) if parent is not None else -1
            ),
            "upto_seq": self.last_seq,
            "created_at": instance.clock.now(),
            "objects": int(manifest["objects"]),
            "bytes": len(blob),
            "state_digest": manifest["state_digest"],
            "archive_sha256": _sha256(blob),
            "immutable": bool(immutable),
        }
        self._next_id += 1
        self.snapshots.append(entry)
        self._save_catalog()
        instance._crash_point("backup.snapshot.done")
        self._dirty = set()
        self._force_full = False
        self._snap_counter.inc(kind=kind)
        self._snap_bytes.inc(len(blob), kind=kind)
        self._audit("snapshot", detail={
            "id": snapshot_id, "kind": kind, "objects": entry["objects"],
            "bytes": entry["bytes"], "upto_seq": entry["upto_seq"],
        })
        return dict(entry)

    def _incremental_archive(
        self, parent: Dict[str, object]
    ) -> Tuple[bytes, Dict[str, object]]:
        """Archive only the objects that changed since ``parent``."""
        instance = self.instance
        kept, tier_rows, digest = archived_state(instance)
        kept_by_key = {m.key: m for m in kept}
        dirty = sorted(self._dirty)
        changed = [k for k in dirty if k in kept_by_key]
        # Dirty but holding no archived copy any more: a deletion from
        # the backup's point of view (same exclusion as a full).
        deleted = [k for k in dirty if k not in kept_by_key]

        manifest: Dict[str, object] = {
            "format": SNAPSHOT_FORMAT,
            "kind": "incremental",
            "instance": instance.name,
            "created_at": instance.clock.now(),
            "parent_id": int(parent["id"]),
            "parent_sha256": parent["archive_sha256"],
            "base_seq": int(parent["upto_seq"]),
            "objects": len(changed),
            "deleted": deleted,
            "tier_order": instance.tiers.names(),
            "state_digest": digest,
        }
        changed_set = set(changed)
        blob = pack_snapshot(
            manifest,
            [kept_by_key[k] for k in changed],
            [
                (tier_name, {
                    k: contents[k] for k in changed_set & set(contents)
                })
                for tier_name, contents in tier_rows
                if contents  # skips non-archived tiers
            ],
        )
        return blob, manifest

    # -- restore ------------------------------------------------------------

    def _read_archive(self, entry: Dict[str, object]) -> bytes:
        path = os.path.join(self._snapshot_dir, str(entry["file"]))
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError as exc:
            raise BackupError(
                f"snapshot #{entry['id']} archive is missing: {exc}"
            ) from exc
        if _sha256(blob) != entry["archive_sha256"]:
            raise BackupError(
                f"snapshot #{entry['id']} archive fails its integrity "
                f"digest — refusing to restore from it"
            )
        return blob

    def _chain(self, tip: Dict[str, object]) -> List[Dict[str, object]]:
        """The restore chain for ``tip``: full first, tip last."""
        chain = [tip]
        entry = tip
        while entry["kind"] != "full":
            parent_id = entry.get("parent")
            if parent_id is None:
                raise BackupError(
                    f"snapshot #{entry['id']} has no parent and is not full"
                )
            parent = self._entry(int(parent_id))
            chain.append(parent)
            entry = parent
        chain.reverse()
        return chain

    def _read_chain(self, chain: List[Dict[str, object]]) -> List[bytes]:
        """Every link's archive, checked against its catalog digest and
        its parent link."""
        blobs = [self._read_archive(entry) for entry in chain]
        for i in range(1, len(chain)):
            manifest = archive_manifest(blobs[i])
            if manifest.get("parent_sha256") != _sha256(blobs[i - 1]):
                raise BackupError(
                    f"snapshot #{chain[i]['id']} was not taken against "
                    f"#{chain[i - 1]['id']} — chain integrity broken"
                )
        return blobs

    def _apply_chain(
        self, target, chain: List[Dict[str, object]], blobs: List[bytes]
    ) -> None:
        """Rebuild ``target`` to the chain tip's captured state."""
        result = restore_archive(target, blobs[0])
        if not result["verified"]:
            raise BackupError(
                f"full snapshot #{chain[0]['id']} failed its state digest"
            )
        for entry, blob in zip(chain[1:], blobs[1:]):
            self._apply_incremental(target, blob)
        digest = target.state_digest()
        expected = chain[-1]["state_digest"]
        if digest != expected:
            raise BackupError(
                f"restored state digest {digest[:12]}… does not match "
                f"snapshot #{chain[-1]['id']} ({str(expected)[:12]}…)"
            )

    def _apply_incremental(self, target, blob: bytes) -> None:
        manifest, metas, tier_data = unpack_archive(blob)
        for name in tier_data:
            if not target.tiers.has(name):
                raise BackupError(f"restore target has no tier {name!r}")

        for key in manifest.get("deleted", []):
            for tier in target.tiers.ordered():
                tier.service.erase(key)
            target._drop_meta(key)
        for meta in metas:
            # Stale copies from the parent state (the object may have
            # moved tiers since) are erased before the new ones land.
            for tier in target.tiers.ordered():
                tier.service.erase(meta.key)
            target.install_meta(meta)
        for name in sorted(tier_data):
            service = target.tiers.get(name).service
            for key, data in sorted(tier_data[name].items()):
                service.install(key, data)

    def _wal_records(self, lo: int, hi: int) -> List[Tuple[int, Dict]]:
        """The archived ``(seq, record)`` pairs with seq in (lo, hi]."""
        missing = [s for s in range(lo + 1, hi + 1) if s not in self._wal]
        if missing:
            raise BackupError(
                f"archived WAL has a hole at seq {missing[0]} "
                f"(range {lo + 1}..{hi}) — point-in-time restore "
                f"would skip history"
            )
        return [(s, self._wal[s]["record"]) for s in range(lo + 1, hi + 1)]

    def _rebuild(
        self, target, chain: List[Dict[str, object]], to_seq: Optional[int]
    ) -> int:
        """Bring ``target`` to the chain tip's state plus the archived
        records up to ``to_seq``; returns how many were replayed.  The
        chain's bytes and links, the WAL's density over the replay range
        and the target's durability layer are checked before ``target``
        is touched: a rebuild refused for any of them has not happened."""
        blobs = self._read_chain(chain)
        records = [] if to_seq is None else self._wal_records(
            int(chain[-1]["upto_seq"]), to_seq
        )
        if records and target.durability is None:
            raise BackupError("restore target has no durability layer")
        self._apply_chain(target, chain, blobs)
        if not records:
            return 0
        replayed, errors = target.durability.replay(
            records, RequestContext(target.clock)
        )
        if errors:
            raise BackupError(
                "replaying archived seq {seq} ({op} {key!r}) failed: "
                "{error}".format(**errors[0])
            )
        return len(replayed)

    def _resolve_target_seq(
        self, to_seq: Optional[int], to_time: Optional[float],
        snapshot_id: Optional[int],
    ) -> Tuple[Dict[str, object], Optional[int]]:
        """Pick ``(base snapshot entry, replay-to seq or None)``."""
        active = self._active_snapshots()
        if not active:
            raise BackupError("no snapshots in the backup store")
        if snapshot_id is not None:
            return self._entry(snapshot_id), None
        if to_time is not None:
            seqs = [
                int(e["seq"]) for e in self._wal.values()
                if float(e["time"]) <= to_time
            ]
            candidates = [
                e for e in active if float(e["created_at"]) <= to_time
            ]
            if seqs:
                to_seq = max(seqs)
            elif candidates:
                return candidates[-1], None
            else:
                raise BackupError(
                    f"no archived history at or before t={to_time}"
                )
        if to_seq is None:
            base = active[-1]
            return base, self.last_seq
        if to_seq > self.last_seq:
            raise BackupError(
                f"seq {to_seq} is beyond the archived history "
                f"(last archived seq is {self.last_seq})"
            )
        bases = [e for e in active if int(e["upto_seq"]) <= to_seq]
        if not bases:
            oldest = active[0]
            raise BackupError(
                f"seq {to_seq} predates the oldest snapshot "
                f"(#{oldest['id']} at seq {oldest['upto_seq']}); that "
                f"history is no longer restorable"
            )
        return bases[-1], int(to_seq)

    def restore(
        self,
        to_seq: Optional[int] = None,
        to_time: Optional[float] = None,
        snapshot_id: Optional[int] = None,
        instance=None,
    ) -> Dict[str, object]:
        """Point-in-time restore.

        At most one of ``to_seq`` / ``to_time`` / ``snapshot_id``; with
        none, restores to the end of archived history.  ``instance``
        defaults to the live one — restoring *in place* truncates the
        WAL beyond the target and retires snapshots taken after it (the
        abandoned timeline stays on disk but is no longer a restore
        base), exactly like a database PITR starting a new timeline.
        A restore refused for a bad target, a broken chain or a hole in
        the WAL has changed nothing (see :meth:`_rebuild`).
        """
        if sum(x is not None for x in (to_seq, to_time, snapshot_id)) > 1:
            raise BackupError(
                "restore takes at most one of to_seq / to_time / snapshot_id"
            )
        base, target_seq = self._resolve_target_seq(
            to_seq, to_time, snapshot_id
        )
        if base.get("retired"):
            raise BackupError(
                f"snapshot #{base['id']} is on an abandoned timeline"
            )
        target = instance if instance is not None else self.instance
        in_place = target is self.instance
        chain = self._chain(base)

        hooks = None
        if in_place:
            # The restore itself must not archive journal noise or
            # dirty the change tracker; detach, restore, re-derive.
            journal = target.durability.journal
            hooks = (journal.archiver, target.on_meta_change)
            journal.archiver = None
            target.on_meta_change = None
        try:
            replayed = self._rebuild(target, chain, target_seq)
        finally:
            if hooks is not None:
                target.durability.journal.archiver = hooks[0]
                target.on_meta_change = hooks[1]

        end_seq = (
            target_seq if target_seq is not None else int(base["upto_seq"])
        )
        if in_place:
            self._truncate_after(end_seq)
            self._dirty = self._changed_since(int(base["upto_seq"]))
            journal = target.durability.journal
            journal._next_seq = max(journal._next_seq, end_seq + 1)
        result = {
            "instance": target.name,
            "base_snapshot": int(base["id"]),
            "chain": [int(e["id"]) for e in chain],
            "to_seq": end_seq,
            "replayed": replayed,
            "state_digest": target.state_digest(),
            "durable_digest": target.state_digest(durable_only=True),
            "in_place": in_place,
        }
        self._restore_counter.inc()
        self._audit("restore", detail={
            "base": result["base_snapshot"], "to_seq": end_seq,
            "replayed": replayed, "in_place": in_place,
        })
        return result

    def _truncate_after(self, end_seq: int) -> None:
        """Abandon history beyond ``end_seq``: the restored state is the
        new timeline, and future writes re-number from there."""
        dropped = [s for s in self._wal if s > end_seq]
        for seq in dropped:
            del self._wal[seq]
        self._last_seq = end_seq
        retired = 0
        for entry in self.snapshots:
            if int(entry["upto_seq"]) > end_seq and not entry.get("retired"):
                entry["retired"] = True
                retired += 1
        self._rewrite_wal()
        if retired:
            self._save_catalog()
        # The journal may sit mid-sequence above the cut; realign so
        # the next record continues the new timeline densely.
        journal = self.instance.durability.journal
        if not journal._pending:
            journal._next_seq = end_seq + 1

    # -- retention ----------------------------------------------------------

    def prune(
        self,
        keep_last: Optional[int] = None,
        keep_window: Optional[float] = None,
    ) -> Dict[str, object]:
        """Apply retention policy; returns what happened.

        ``keep_last`` keeps the N newest active snapshots;
        ``keep_window`` keeps everything created in the last W virtual
        seconds.  A snapshot survives if *either* rule keeps it.  Never
        removed, regardless of policy: immutable snapshots (the attempt
        is a recorded policy violation), the newest active full, and
        any full/incremental a surviving snapshot's chain depends on.
        Retired (abandoned-timeline) snapshots are always discarded
        unless immutable.  A negative count is refused (``ValueError``)
        before anything is read or deleted.
        """
        for name, value in (("keep_last", keep_last),
                            ("keep_window", keep_window)):
            if value is not None and value < 0:
                raise ValueError(f"{name} must be at least 0, got {value}")
        now = self.instance.clock.now()
        active = self._active_snapshots()
        # One pass: doomed when a rule is given and no given rule keeps
        # it (an absent rule keeps nothing).
        ruled = keep_last is not None or keep_window is not None
        newest = len(active) - int(keep_last) if keep_last is not None else len(active)
        oldest = now - float(keep_window) if keep_window is not None else float("inf")
        doomed_ids = {
            int(entry["id"]) for index, entry in enumerate(active)
            if ruled and index < newest and float(entry["created_at"]) < oldest
        }
        doomed_ids.update(int(e["id"]) for e in self.snapshots if e.get("retired"))

        protected: List[Dict[str, object]] = []
        violations = 0
        # Chains of surviving actives must stay whole.
        required = set()
        survivors = [
            e for e in self._active_snapshots()
            if int(e["id"]) not in doomed_ids
        ]
        for entry in survivors:
            for link in self._chain(entry):
                required.add(int(link["id"]))
        # The newest active full is the anchor of everything after it.
        fulls = [e for e in self._active_snapshots() if e["kind"] == "full"]
        if fulls:
            required.add(int(fulls[-1]["id"]))

        removed: List[int] = []
        for entry in list(self.snapshots):
            eid = int(entry["id"])
            if eid not in doomed_ids:
                continue
            if entry.get("immutable"):
                violations += 1
                self._violation_counter.inc()
                self._audit(
                    "immutable-violation",
                    error="retention attempted to delete an immutable snapshot",
                    detail={"id": eid, "kind": entry["kind"]},
                )
                continue
            if eid in required:
                protected.append({"id": eid, "reason": "chain-dependency"})
                continue
            path = os.path.join(self._snapshot_dir, str(entry["file"]))
            if os.path.exists(path):
                os.remove(path)
            self.snapshots.remove(entry)
            removed.append(eid)
        if removed:
            self._save_catalog()
            self._prune_counter.inc(len(removed))

        # History before the oldest remaining active base is
        # unrestorable anyway; let the WAL go with it.
        wal_dropped = 0
        active = self._active_snapshots()
        if active and removed:
            cutoff = min(int(e["upto_seq"]) for e in active)
            doomed_seqs = [s for s in self._wal if s <= cutoff]
            for seq in doomed_seqs:
                del self._wal[seq]
            wal_dropped = len(doomed_seqs)
            if wal_dropped:
                self._rewrite_wal()
        report = {
            "pruned": removed,
            "kept": [int(e["id"]) for e in self.snapshots],
            "protected": protected,
            "violations": violations,
            "wal_dropped": wal_dropped,
        }
        self._audit("prune", detail={
            "pruned": len(removed), "violations": violations,
            "wal_dropped": wal_dropped,
        })
        return report

    # -- scheduled recovery verification ------------------------------------

    def _scratch_instance(self):
        """A throwaway clone shell: same tier shapes, empty policy, its
        own cluster/clock/metrics so verification never perturbs the
        live instance or its timeline."""
        from repro.core.instance import TieraInstance
        from repro.core.policy import Policy
        from repro.simcloud.cluster import Cluster
        from repro.tiers.registry import TierRegistry

        products = {
            "memcached": "Memcached",
            "ebs": "EBS",
            "s3": "S3",
            "ephemeral": "EphemeralStorage",
        }
        cluster = Cluster(seed=2014)
        registry = TierRegistry(cluster)
        tiers = []
        for tier in self.instance.tiers.ordered():
            product = products.get(tier.kind)
            if product is None:
                raise BackupError(
                    f"cannot build a scratch {tier.kind!r} tier"
                )
            tiers.append(registry.create(
                product, tier_name=tier.name, size=tier.capacity
            ))
        scratch = TieraInstance(
            name=f"{self.instance.name}-verify",
            tiers=tiers,
            policy=Policy(),
            clock=cluster.clock,
        )
        scratch.eviction_chain.update(self.instance.eviction_chain)
        scratch.enable_durability(recover=False)
        return scratch

    def verify_restore(self) -> Dict[str, object]:
        """Restore the latest chain into a scratch instance and check it.

        The drill a real operator schedules: apply the chain, replay the
        WAL tail, compare the state digest, run fsck.  The result is
        persisted as ``last_verified_restore`` (surfaced in ``health()``)
        whether it passed or not — a failed drill is exactly the signal
        the schedule exists to raise.
        """
        now = self.instance.clock.now()
        result: Dict[str, object] = {
            "time": now, "ok": False, "snapshot": None, "to_seq": None,
            "replayed": 0, "digest_match": False, "fsck_clean": False,
            "findings": 0, "state_digest": "", "error": None,
        }
        scratch = None
        try:
            active = self._active_snapshots()
            if not active:
                raise BackupError("nothing to verify: no snapshots yet")
            tip = active[-1]
            scratch = self._scratch_instance()
            # _apply_chain digest-checks the chain tip internally.
            replayed = self._rebuild(scratch, self._chain(tip), self.last_seq)
            scrub = fsck(scratch, repair=False)
            result.update({
                "ok": bool(scrub["clean"]),
                "snapshot": int(tip["id"]),
                "to_seq": self.last_seq,
                "replayed": replayed,
                "digest_match": True,
                "fsck_clean": bool(scrub["clean"]),
                "findings": int(scrub["counts"]["findings"]),
                "state_digest": scratch.state_digest(durable_only=True),
            })
        except BackupError as exc:
            result["error"] = str(exc)
        finally:
            if scratch is not None:
                scratch.shutdown()
        self.last_verified_restore = result
        _atomic_write(
            self._verify_path,
            json.dumps(result, indent=2, sort_keys=True).encode("utf-8"),
        )
        self._verify_counter.inc(ok=str(bool(result["ok"])).lower())
        self._audit(
            "verify",
            error=result["error"] if not result["ok"] else None,
            detail={
                "ok": result["ok"], "snapshot": result["snapshot"],
                "replayed": result["replayed"],
                "findings": result["findings"],
            },
        )
        return dict(result)

    # -- reporting ----------------------------------------------------------

    def health_summary(self) -> Dict[str, object]:
        """The backup-chain status block for ``health()`` / stats."""
        active = self._active_snapshots()
        last = active[-1] if active else None
        return {
            "snapshots": len(active),
            "full": sum(1 for e in active if e["kind"] == "full"),
            "incremental": sum(
                1 for e in active if e["kind"] == "incremental"
            ),
            "immutable": sum(1 for e in active if e.get("immutable")),
            "retired": sum(1 for e in self.snapshots if e.get("retired")),
            "last_snapshot": (
                {
                    "id": int(last["id"]),
                    "kind": last["kind"],
                    "upto_seq": int(last["upto_seq"]),
                    "created_at": last["created_at"],
                }
                if last is not None else None
            ),
            "wal": {
                "records": len(self._wal),
                "first_seq": min(self._wal) if self._wal else -1,
                "last_seq": self.last_seq,
            },
            "dirty_objects": len(self._dirty),
            "last_verified_restore": self.last_verified_restore,
        }

    def _audit(
        self, name: str, error: Optional[str] = None,
        detail: Optional[Dict[str, object]] = None,
    ) -> None:
        self.instance.obs.audit.append(AuditRecord(
            time=self.instance.clock.now(),
            category="backup",
            name=name,
            origin="backup",
            foreground=False,
            error=error,
            detail=detail or {},
        ))

    def close(self) -> None:
        """Detach from the instance's hooks (the store stays on disk)."""
        journal = self.instance.durability.journal
        if journal.archiver is self._archive_record:
            journal.archiver = None
        if self.instance.on_meta_change is self._note_meta_change:
            self.instance.on_meta_change = None
        self.instance.backup = None
