"""Responses: the actions a policy executes when an event fires.

This is Table 1 of the paper — ``store``, ``storeOnce``, ``retrieve``,
``copy`` (with optional bandwidth cap), ``encrypt``/``decrypt``,
``compress``/``uncompress``, ``delete``, ``move``, ``grow``/``shrink`` —
plus :class:`SetAttr` (the spec language's assignment statements such as
``insert.object.dirty = true``), :class:`Conditional` (the ``if`` blocks
of Figure 5), and the extensions the paper defers to future work:
:class:`Snapshot` point-in-time copies.

Responses execute against an :class:`~repro.core.conditions.EvalScope`
(which names the instance and triggering action) and charge their time
to a :class:`~repro.simcloud.resources.RequestContext` — the client's
own context for foreground rules, a forked background context otherwise.
"""

from __future__ import annotations

import hashlib
import zlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.conditions import Condition, EvalScope
from repro.core.errors import PolicyError, UnknownTierError
from repro.core.objects import content_checksum
from repro.core.selectors import Selector
from repro.simcloud.bandwidth import BandwidthCap, cap_from
from repro.simcloud.resources import RequestContext


class Response(ABC):
    """One executable policy action."""

    @abstractmethod
    def execute(self, scope: EvalScope, ctx: RequestContext) -> None:
        """Run the response; raises on unrecoverable policy errors."""


def _tier_list(to) -> Tuple[str, ...]:
    if isinstance(to, str):
        return (to,)
    return tuple(to)


def _payload_for(scope: EvalScope, key: str, ctx: RequestContext) -> bytes:
    """The bytes to place for ``key``: the in-flight insert's payload if
    that is what triggered us, otherwise a read-back from storage."""
    action = scope.action
    if action is not None and action.key == key and action.data is not None:
        return action.data
    return scope.instance.read_raw(key, ctx)


def _note_write(scope: EvalScope, key: str, tiers, placed: bool) -> None:
    """Record on the in-flight action that its payload reached ``tiers``."""
    action = scope.action
    if action is not None and action.key == key and action.data is not None:
        action.stored_in.update(tiers)
        if placed:
            action.placed = True


@dataclass
class Store(Response):
    """Store selected objects in the given tiers (Table 1: ``store``).

    ``evict_to`` enables make-room semantics: when the target tier
    cannot fit the object, least-recently-used residents are moved to
    ``evict_to`` until it can.  This is the compiled form of Figure 5's
    LRU policy (if tier full → move oldest → store).
    """

    what: Selector
    to: Tuple[str, ...]
    evict_to: Optional[str] = None

    def __init__(self, what: Selector, to, evict_to: Optional[str] = None):
        self.what = what
        self.to = _tier_list(to)
        self.evict_to = evict_to

    def execute(self, scope: EvalScope, ctx: RequestContext) -> None:
        instance = scope.instance
        for key in self.what.resolve(scope):
            data = _payload_for(scope, key, ctx)
            # Multi-tier inserts overlap: the request pays max() over the
            # destination tiers, not their sum (see write_fanout).
            instance.write_fanout(key, data, self.to, ctx, evict_to=self.evict_to)
            _note_write(scope, key, self.to, placed=True)


@dataclass
class StoreOnce(Response):
    """Store only content the instance has not seen (Table 1: ``storeOnce``).

    De-duplication is by content checksum.  If identical bytes already
    live under another key, the new key becomes an *alias*: no data is
    written, the canonical object's refcount rises, and GETs of the new
    key are served from the canonical content.  This is what lets the
    S3FS-style client of Figure 12 shrink its working set.
    """

    what: Selector
    to: Tuple[str, ...]
    evict_to: Optional[str] = None

    def __init__(self, what: Selector, to, evict_to: Optional[str] = None):
        self.what = what
        self.to = _tier_list(to)
        self.evict_to = evict_to

    def execute(self, scope: EvalScope, ctx: RequestContext) -> None:
        instance = scope.instance
        for key in self.what.resolve(scope):
            data = _payload_for(scope, key, ctx)
            checksum = content_checksum(data)
            canonical = instance.dedup_lookup(checksum)
            if canonical is not None and canonical != key:
                instance.alias_object(key, canonical)
                if scope.action is not None and scope.action.key == key:
                    scope.action.placed = True
                continue
            instance.write_fanout(key, data, self.to, ctx, evict_to=self.evict_to)
            _note_write(scope, key, self.to, placed=True)
            instance.dedup_register(checksum, key)


@dataclass
class Retrieve(Response):
    """Read selected objects, optionally promoting them to a faster tier.

    Table 1 lists ``retrieve`` as reading from an underlying tier; with
    ``promote_to`` it doubles as a prefetch/cache-warm response.  With
    ``exclusive=True`` the promotion is a relocation: the object leaves
    the tiers it came from (Table 2's exclusive tiering, where a GET of
    a cold object pulls it back up into Memcached).
    """

    what: Selector
    promote_to: Optional[str] = None
    exclusive: bool = False

    def execute(self, scope: EvalScope, ctx: RequestContext) -> None:
        instance = scope.instance
        for key in self.what.resolve(scope):
            data = instance.read_raw(key, ctx)
            if self.promote_to is None:
                continue
            physical = instance.resolve_alias(key)
            sources = instance.meta(physical).copies() if self.exclusive else ()
            instance.relocate(
                physical, (self.promote_to,), ctx, data=data, drop_from=sources
            )


class _Transfer(Response):
    """The body :class:`Copy` and :class:`Move` share: pace under the
    cap, :meth:`~repro.core.instance.TieraInstance.relocate`, note the
    in-flight action, and clear ``dirty`` once a durable tier landed."""

    #: a move leaves the tiers it came from and counts as placing the object
    moves = False

    def __init__(self, what: Selector, to, bandwidth=None, clear_dirty: bool = True):
        self.what = what
        self.to = _tier_list(to)
        self.cap: Optional[BandwidthCap] = cap_from(bandwidth)
        self.clear_dirty = clear_dirty

    def execute(self, scope: EvalScope, ctx: RequestContext) -> None:
        instance = scope.instance
        for key in self.what.resolve(scope):
            data = _payload_for(scope, key, ctx)
            if self.cap is not None:
                start = self.cap.next_start(ctx.time, len(data))
                if start > ctx.time:
                    ctx.wait(start - ctx.time)
            instance.relocate(
                key, self.to, ctx, data=data,
                drop_from=instance.meta(key).copies() if self.moves else (),
            )
            _note_write(scope, key, self.to, placed=self.moves)
            if self.clear_dirty and any(
                instance.tiers.get(tier).durable for tier in self.to
            ):
                meta = instance.meta(key)
                meta.dirty = False
                instance.persist_meta(meta)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(what={self.what!r}, to={self.to!r}, "
            f"cap={self.cap!r})"
        )


class Copy(_Transfer):
    """Copy objects to destination tiers, optionally bandwidth-capped.

    A successful copy to a durable tier clears the object's dirty flag —
    this is the write-back semantics of Figure 3 ("copying data to
    persistent store on a timer event") — unless ``clear_dirty`` is off
    (Table 3's High Durability).  When a cap is given, transfers are
    paced on a private lane so they stop monopolising the device that
    foreground requests need (Figure 14).
    """


class Move(_Transfer):
    """Move objects to destination tiers (Table 1: ``move``).

    :class:`Copy`'s body, then the object leaves each tier it previously
    occupied that is not a destination.  Not a subclass of ``Copy``:
    fsck's durable insert targets tell the two apart.
    """

    moves = True

    def __init__(self, what: Selector, to, bandwidth=None):
        super().__init__(what, to, bandwidth)


@dataclass
class Delete(Response):
    """Delete objects from specific tiers, or entirely when ``tiers=None``
    or the tiers hold every copy (only a delete empties a row)."""

    what: Selector
    tiers: Optional[Tuple[str, ...]] = None

    def __init__(self, what: Selector, tiers=None):
        self.what = what
        self.tiers = _tier_list(tiers) if tiers is not None else None

    def execute(self, scope: EvalScope, ctx: RequestContext) -> None:
        instance = scope.instance
        for key in self.what.resolve(scope):
            if self.tiers is not None:
                copies = instance.meta(key).copies()
                drop = [t for t in copies if t in self.tiers]
                if not drop or len(drop) < len(copies):
                    instance.relocate(key, (), ctx, drop_from=drop)
                    continue
            instance.delete_object(key, ctx)


def _keystream(key: str, length: int) -> bytes:
    """Deterministic keystream from SHA-256 in counter mode.

    Stand-in for a real cipher (the prototype would use a vetted AES
    library); XOR with this stream is reversible and key-dependent,
    which is all the policy machinery and tests require.
    """
    out = bytearray()
    counter = 0
    seed = key.encode("utf-8")
    while len(out) < length:
        out.extend(hashlib.sha256(seed + counter.to_bytes(8, "big")).digest())
        counter += 1
    return bytes(out[:length])


def _xor(data: bytes, stream: bytes) -> bytes:
    return bytes(a ^ b for a, b in zip(data, stream))


@dataclass
class Encrypt(Response):
    """Encrypt selected objects in place with ``key`` (Table 1)."""

    what: Selector
    key: str

    def execute(self, scope: EvalScope, ctx: RequestContext) -> None:
        instance = scope.instance
        for obj_key in self.what.resolve(scope):
            meta = instance.meta(obj_key)
            if meta.encrypted:
                continue
            data = instance.read_raw(obj_key, ctx)
            sealed = _xor(data, _keystream(self.key, len(data)))
            # The flag flip rides in the rewrite's journal intent: a
            # crash can never leave ciphertext marked as plaintext.
            instance.rewrite_everywhere(
                obj_key, sealed, ctx, updates={"encrypted": True}
            )


@dataclass
class Decrypt(Response):
    """Reverse :class:`Encrypt` with the same key."""

    what: Selector
    key: str

    def execute(self, scope: EvalScope, ctx: RequestContext) -> None:
        instance = scope.instance
        for obj_key in self.what.resolve(scope):
            meta = instance.meta(obj_key)
            if not meta.encrypted:
                continue
            data = instance.read_raw(obj_key, ctx)
            opened = _xor(data, _keystream(self.key, len(data)))
            instance.rewrite_everywhere(
                obj_key, opened, ctx, updates={"encrypted": False}
            )


@dataclass
class Compress(Response):
    """ZLIB-compress selected objects in place (Table 1: ``compress``)."""

    what: Selector
    level: int = 6

    def execute(self, scope: EvalScope, ctx: RequestContext) -> None:
        instance = scope.instance
        for key in self.what.resolve(scope):
            meta = instance.meta(key)
            if meta.compressed:
                continue
            data = instance.read_raw(key, ctx)
            packed = zlib.compress(data, self.level)
            instance.rewrite_everywhere(
                key, packed, ctx, updates={"compressed": True}
            )


@dataclass
class Uncompress(Response):
    """Inflate previously compressed objects (Table 1: ``uncompress``)."""

    what: Selector

    def execute(self, scope: EvalScope, ctx: RequestContext) -> None:
        instance = scope.instance
        for key in self.what.resolve(scope):
            meta = instance.meta(key)
            if not meta.compressed:
                continue
            data = instance.read_raw(key, ctx)
            instance.rewrite_everywhere(
                key, zlib.decompress(data), ctx,
                updates={"compressed": False},
            )


@dataclass
class Grow(Response):
    """Expand a tier's capacity by a percentage (Table 1: ``grow``).

    Memory tiers provision a new node, which takes about a minute of
    simulated time (Figure 16); until then the old capacity applies.
    """

    tier: str
    percent: float
    provisioning_delay: Optional[float] = None

    def execute(self, scope: EvalScope, ctx: RequestContext) -> None:
        if not scope.instance.tiers.has(self.tier):
            raise UnknownTierError(self.tier)
        scope.instance.tiers.get(self.tier).grow(
            self.percent, provisioning_delay=self.provisioning_delay
        )


@dataclass
class Shrink(Response):
    """Reduce a tier's capacity by a percentage (Table 1: ``shrink``)."""

    tier: str
    percent: float

    def execute(self, scope: EvalScope, ctx: RequestContext) -> None:
        if not scope.instance.tiers.has(self.tier):
            raise UnknownTierError(self.tier)
        scope.instance.tiers.get(self.tier).shrink(self.percent)


@dataclass
class SetAttr(Response):
    """An assignment statement: ``insert.object.dirty = true`` (Figure 3).

    Supports the mutable object-metadata attributes: ``dirty`` and tag
    addition (``tags``)."""

    path: Tuple[str, ...]
    value: object

    def execute(self, scope: EvalScope, ctx: RequestContext) -> None:
        path = tuple(self.path)
        if len(path) >= 2 and path[:2] == ("insert", "object"):
            if scope.action is None or scope.action.meta is None:
                raise PolicyError("insert.object assignment outside an insert")
            meta = scope.action.meta
            attr = path[2] if len(path) > 2 else None
        elif path[0] == "object":
            if scope.obj is None:
                raise PolicyError("object assignment without an object in scope")
            meta = scope.obj
            attr = path[1] if len(path) > 1 else None
        else:
            raise PolicyError(f"cannot assign to {'.'.join(path)!r}")
        if attr == "dirty":
            meta.dirty = bool(self.value)
        elif attr == "tags":
            meta.tags.add(str(self.value))
        else:
            raise PolicyError(f"attribute {attr!r} is not assignable")
        scope.instance.persist_meta(meta)


@dataclass
class Conditional(Response):
    """``if (cond) { … } [else { … }]`` inside a response block (Figure 5)."""

    condition: Condition
    then: Tuple[Response, ...] = ()
    otherwise: Tuple[Response, ...] = ()

    def __init__(self, condition, then=(), otherwise=()):
        self.condition = condition
        self.then = tuple(then)
        self.otherwise = tuple(otherwise)

    def execute(self, scope: EvalScope, ctx: RequestContext) -> None:
        branch = self.then if self.condition.truthy(scope) else self.otherwise
        for response in branch:
            response.execute(scope, ctx)


@dataclass
class Snapshot(Response):
    """Extension (paper §2.2 future work): point-in-time object copies.

    Writes each selected object's current bytes to ``to`` under
    ``<key>@<label>``; the snapshot key is an ordinary object and can be
    retrieved or deleted like any other.
    """

    what: Selector
    to: str
    label: str

    def execute(self, scope: EvalScope, ctx: RequestContext) -> None:
        instance = scope.instance
        for key in self.what.resolve(scope):
            data = instance.read_raw(key, ctx)
            snap_key = f"{key}@{self.label}"
            instance.create_object(snap_key, len(data), tags={"snapshot"})
            instance.relocate(snap_key, (self.to,), ctx, data=data)


@dataclass
class BackupSnapshot(Response):
    """Take an instance-level backup snapshot (``backupSnapshot()``).

    Driven from timer rules for a snapshot schedule; ``kind`` is
    ``auto`` (incremental when a parent chain exists), ``full``, or
    ``incremental``.  Requires backups enabled on the instance.
    """

    kind: str = "auto"

    def execute(self, scope: EvalScope, ctx: RequestContext) -> None:
        manager = getattr(scope.instance, "backup", None)
        if manager is None:
            raise PolicyError(
                "backupSnapshot() requires backups to be enabled "
                "(TieraInstance.enable_backups)"
            )
        manager.snapshot(kind=self.kind)


@dataclass
class VerifyBackup(Response):
    """Run a scheduled recovery-verification drill (``verifyBackup()``).

    Restores the latest snapshot chain plus WAL tail into a scratch
    instance, checks digest + fsck, and records the outcome as
    ``last_verified_restore`` (surfaced by ``health()``).  The drill
    itself never raises on a failed verification — a failed drill *is*
    the recorded result the schedule exists to produce.
    """

    def execute(self, scope: EvalScope, ctx: RequestContext) -> None:
        manager = getattr(scope.instance, "backup", None)
        if manager is None:
            raise PolicyError(
                "verifyBackup() requires backups to be enabled "
                "(TieraInstance.enable_backups)"
            )
        manager.verify_restore()


@dataclass
class AdaptivePlacement(Response):
    """One adaptive placement cycle (``adaptive_placement(...)``).

    The heat-driven placement engine as a policy primitive: executing
    the response gets the engine, creating it on first use, and runs one
    plan-and-apply cycle on the triggering context.  It never touches
    the policy; the enclosing rule's event is the cadence, so it
    composes with static rules and threshold triggers.  When the engine
    is created here, ``objective`` picks its cost-vs-latency weighting
    preset and ``interval`` its promote-vs-prewarm recency split and
    default hysteresis (twice the interval).
    """

    objective: str = "balanced"
    interval: float = 60.0

    def execute(self, scope: EvalScope, ctx: RequestContext) -> None:
        instance = scope.instance
        engine = instance.placement or instance.placement_engine(
            objective=self.objective, interval=self.interval
        )
        engine.run_cycle(ctx, origin="rule")
