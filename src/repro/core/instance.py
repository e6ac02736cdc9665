"""The Tiera instance: tiers + policy + control + metadata.

"The storage tiers along with the Tiera server constitute a Tiera
instance" (§2.2).  This class owns the object-metadata table (persisted
through the embedded kvstore, the prototype's BerkeleyDB role), the
de-duplication index behind ``storeOnce``, the data-path primitives the
responses are written against, cost accounting, and the runtime
reconfiguration entry point the Figure 17 experiment drives.
"""

from __future__ import annotations

import hashlib
import re
from typing import (
    Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple,
)

from repro.core.control import EVAL_OVERHEAD, ControlLayer
from repro.core.errors import (
    BreakerOpenError,
    CorruptObjectError,
    NoCapacityError,
    NoSuchObjectError,
    TierUnavailableError,
    UnknownTierError,
)
from repro.core.objects import ObjectMeta
from repro.core.policy import Policy, Rule
from repro.core.tierset import TierSet
from repro.kvstore import KVStore, MemoryStore
from repro.simcloud.clock import Clock
from repro.simcloud.errors import ProcessCrash, ServiceUnavailableError
from repro.simcloud.pricing import PriceBook
from repro.simcloud.resources import RequestContext
from repro.tiers.base import Tier

#: Eviction-chain sentinel: discard victims instead of relocating them.
#: Only victims that also live in another tier may be dropped.
DROP = "<drop>"

#: ``<key>@v<N>``, the name :meth:`TieraInstance.preserve_version` gives
#: version N of ``key`` (the last ``@v`` splits, as the key may hold one).
_VERSION_KEY = re.compile(r"(.+)@v(\d+)\Z", re.DOTALL)


def state_fingerprint(meta_rows, tier_rows) -> str:
    """The digest recipe behind :meth:`TieraInstance.state_digest`.

    ``meta_rows`` is an iterable of ``(key, size, sorted-locations,
    version, checksum)`` tuples in key order; ``tier_rows`` of
    ``(tier_name, {key: bytes})`` in tier declaration order.  Snapshots
    hash their archived subset through the same recipe so a restore can
    be verified against the manifest.
    """
    h = hashlib.sha256()
    for key, size, locations, version, checksum in meta_rows:
        h.update(key.encode("utf-8"))
        h.update(str(size).encode())
        h.update(",".join(locations).encode())
        h.update(str(version).encode())
        h.update(checksum.encode())
    for name, contents in tier_rows:
        h.update(name.encode("utf-8"))
        for stored in sorted(contents):
            h.update(stored.encode("utf-8"))
            h.update(hashlib.sha256(contents[stored]).digest())
    return h.hexdigest()


class _MetaWriteBack:
    """The metadata write-back scope (``with instance.meta_writeback:``):
    a client op opens one (``TieraServer._apply_op``), and so does every
    journaled primitive (:class:`_Journaled`), inside it or alone.

    The only place rows reach the metadata store.  While a scope is
    open, :meth:`TieraInstance.persist_meta` and ``_drop_meta`` only
    note the key, and a journaled primitive that returned hands over its
    intent.  Leaving the outermost scope writes every noted key's
    current state once (a put, or a delete when it was dropped), then
    retires the noted intents in seq order, ``<op>.commit`` at each —
    so an acked or refused op's rows are in the store before its
    envelope exists, and an intent outlives the rows it names.  A
    :class:`ProcessCrash` leaving the scope writes and retires nothing:
    a dead process does not flush, and its intents stay pending for the
    successor's ``recover()``.  With no scope open a noted row is
    written at once (``add_tag``, fsck repairs, recovery and restore).
    """

    __slots__ = ("instance", "depth", "keys", "intents")

    def __init__(self, instance: "TieraInstance"):
        self.instance = instance
        self.depth = 0
        self.discard()

    def discard(self) -> None:
        """Forget the noted rows and intents (a dead process's)."""
        self.keys: Dict[str, None] = {}  # touched keys, first-touch order
        self.intents: List[Tuple[int, str]] = []  # (seq, op) to retire

    def note(self, key: str) -> None:
        self.keys[key] = None
        if not self.depth:
            self.flush()

    def flush(self) -> None:
        """Write every noted row now."""
        keys, self.keys = self.keys, {}
        table, store = self.instance._meta, self.instance.metadata_store
        for key in keys:
            meta = table.get(key)
            if meta is None:
                store.delete(key.encode("utf-8"))
            else:
                store.put(key.encode("utf-8"), meta.to_json())

    def __enter__(self) -> None:
        self.depth += 1

    def __exit__(self, exc_type, exc, tb) -> None:
        self.depth -= 1
        if self.depth:
            return
        if exc_type is not None and issubclass(exc_type, ProcessCrash):
            self.discard()
            return
        intents, self.intents = self.intents, []
        self.flush()
        instance = self.instance
        for seq, op in sorted(intents):
            instance.durability.commit(seq)
            instance._crash_point(op + ".commit")


class _Journaled:
    """The bracket every journaled primitive runs its body in (``with
    _Journaled(instance, op, key, *plan_args):``, the kinds and their
    plans in :data:`repro.core.durability.INTENTS`).

    Enter: ``<op>.begin``, the intent (journal on and something to
    record), ``<op>.journaled``, then the write-back scope — last, so a
    crash at those points leaves no depth behind.  Three exits: the body
    returned — the intent goes to the scope, which retires it once its
    rows are written; it raised — abort: the intent never happened
    (archived as a ``noop`` marker, never replayed); the process died
    (:class:`ProcessCrash`) — the record stays pending for the
    successor's ``recover()`` to roll forward.
    """

    __slots__ = ("instance", "op", "args", "seq")

    def __init__(self, instance: "TieraInstance", op: str, *args):
        self.instance = instance
        self.op = op
        self.args = args  # the key, then what the kind's plan takes
        self.seq: Optional[int] = None

    def __enter__(self) -> None:
        instance, op = self.instance, self.op
        instance._crash_point(op + ".begin")
        dur = instance.durability
        if dur is not None:
            self.seq = getattr(dur, "journal_" + op)(*self.args)
            if self.seq is not None:
                instance._crash_point(op + ".journaled")
        instance.meta_writeback.__enter__()

    def __exit__(self, exc_type, exc, tb) -> None:
        instance, seq = self.instance, self.seq
        writeback = instance.meta_writeback
        if seq is not None:
            if exc_type is None:
                writeback.intents.append((seq, self.op))
            elif not issubclass(exc_type, ProcessCrash):
                instance.durability.abort(seq)
        writeback.__exit__(exc_type, exc, tb)


def _fan_out(ctx: RequestContext, items: Sequence, fn: Callable) -> None:
    """``fn(item, ctx)`` for each item, overlapped in virtual time.

    Several items run on their own branches of a scatter/join, so the
    request pays the slowest, not the sum; one runs on ``ctx`` itself.
    State effects keep item order.  The first failure stops later items
    and re-raises after the join (the failed branch's spent time — e.g.
    a full timeout — still holds the join back).
    """
    if len(items) <= 1:
        for item in items:
            fn(item, ctx)
        return
    branches = ctx.scatter()
    failure: Optional[Exception] = None
    for item in items:
        try:
            fn(item, branches.branch())
        except Exception as exc:  # ProcessCrash is BaseException: flies
            failure = exc
            break
    branches.join()
    if failure is not None:
        raise failure


class TieraInstance:
    """One configured multi-tier storage instance."""

    def __init__(
        self,
        name: str,
        tiers: Sequence[Tier],
        policy: Optional[Policy] = None,
        clock: Optional[Clock] = None,
        metadata_store: Optional[KVStore] = None,
        price_book: Optional[PriceBook] = None,
        eval_overhead: float = EVAL_OVERHEAD,
        obs=None,
    ):
        if clock is None:
            raise ValueError("a TieraInstance needs a clock")
        self.name = name
        self.clock = clock
        self.tiers = TierSet(list(tiers))
        self.policy = policy if policy is not None else Policy()
        self.price_book = price_book if price_book is not None else PriceBook()
        self.metadata_store = (
            metadata_store if metadata_store is not None else MemoryStore()
        )
        #: observability hub (repro.obs).  Not passed explicitly it is
        #: inherited from the tiers' services (which get the cluster's
        #: hub via the TierRegistry), so control-layer and service
        #: metrics land in one registry; a bare instance gets its own.
        if obs is None:
            obs = next(
                (
                    t.service.obs
                    for t in self.tiers
                    if getattr(t.service, "obs", None) is not None
                ),
                None,
            )
        if obs is None:
            from repro.obs.hub import Observability

            obs = Observability(clock)
        self.obs = obs
        self._gets_served = obs.metrics.counter(
            "tiera_gets_served_total", "GET requests answered, by tier."
        )
        obs.metrics.add_collector(self._collect_gauges)
        self.control = ControlLayer(self, self.policy, clock, eval_overhead)
        self._meta: Dict[str, ObjectMeta] = {}
        #: three indexes derived from the table, kept by install_meta /
        #: _drop_meta (wholesale) and the alias/version primitives (live):
        self._dedup: Dict[str, str] = {}  # checksum -> canonical key
        #: canonical key -> its alias keys, earliest-linked first
        self._aliases: Dict[str, Dict[str, None]] = {}
        #: key -> {preserved version key: version number}
        self._versions: Dict[str, Dict[str, int]] = {}
        self.meta_writeback = _MetaWriteBack(self)
        #: tier -> tier overflow map: when making room in a tier, evicted
        #: LRU objects move to its chain successor (and so on down).
        #: Templates implementing exclusive LRU tiering set this.
        self.eviction_chain: Dict[str, str] = {}
        #: object versioning (paper §2.2 future work): when enabled, an
        #: overwrite first preserves the old bytes as ``key@vN``.
        self.versioning_enabled = False
        self.versioning_tier: Optional[str] = None
        self.max_versions = 3
        #: resilience layer (retries / breakers / degraded writes) —
        #: opt-in via :meth:`enable_resilience`; ``None`` keeps the data
        #: path exactly as before (no extra checks, no RNG).
        self.resilience = None
        #: durability layer (intent journal / recovery / fsck) — opt-in
        #: via :meth:`enable_durability`; ``None`` journals nothing.
        self.durability = None
        #: backup manager (incremental snapshots / PITR / verification)
        #: — opt-in via :meth:`enable_backups`; ``None`` archives nothing.
        self.backup = None
        #: adaptive placement engine (heat-driven promote/demote/pre-warm)
        #: — opt-in via :meth:`enable_placement`; ``None`` moves nothing.
        self.placement = None
        #: ``hook(key)`` fired on every metadata upsert/drop; the backup
        #: layer's change tracking listens here so metadata-only edits
        #: (tags, aliases, fsck repairs) dirty the object for the next
        #: incremental snapshot even though they journal nothing.
        self.on_meta_change = None
        #: crash-point injector (repro.simcloud.faults.CrashPointInjector)
        #: — set by the crash sweep; ``None`` makes boundaries free.
        self.crash_points = None
        self._load_metadata()
        self.control.start()

    # -- metadata table -----------------------------------------------------

    def _load_metadata(self) -> None:
        """Rebuild the in-memory table from the persistent store."""
        for key, blob in self.metadata_store.items():
            if key.startswith(b"\x00"):
                continue  # reserved (journal records ride on this store)
            self.install_meta(ObjectMeta.from_json(blob), persist=False)

    def install_meta(self, meta: ObjectMeta, persist: bool = True) -> None:
        """Make ``meta`` the table's entry for its key.

        The one way a ready-made metadata image (a store row on open, a
        journaled post-state, a snapshot member) enters the table: it
        replaces whatever the key held and re-derives the key's dedup,
        alias and version index entries from the image alone.
        """
        old = self._meta.get(meta.key)
        if old is not None:
            self._unindex(old)
        self._meta[meta.key] = meta
        if meta.alias_of is not None:
            self._aliases.setdefault(meta.alias_of, {})[meta.key] = None
        elif meta.checksum:
            self._dedup.setdefault(meta.checksum, meta.key)
        if "version" in meta.tags:
            # Only what preserve_version created counts as a version: a
            # client's own ``report@v9`` does not carry the tag.
            match = _VERSION_KEY.match(meta.key)
            if match is not None:
                self._versions.setdefault(match[1], {})[meta.key] = int(match[2])
        if persist:
            self.persist_meta(meta)

    def clear_meta(self) -> None:
        """Empty the table and its indexes (a restore starts from here)."""
        self._meta.clear()
        self._dedup.clear()
        self._aliases.clear()
        self._versions.clear()

    def _unindex(self, meta: ObjectMeta) -> None:
        """Forget ``meta``'s own entries in the three indexes."""
        self._drop_dedup_entry(meta)
        if meta.alias_of is not None:
            self._unlink(self._aliases, meta.alias_of, meta.key)
        match = _VERSION_KEY.match(meta.key)
        if match is not None:
            self._unlink(self._versions, match[1], meta.key)

    @staticmethod
    def _unlink(index: Dict[str, Dict], owner: str, member: str) -> None:
        members = index.get(owner)
        if members is not None:
            members.pop(member, None)
            if not members:
                del index[owner]

    def has_object(self, key: str) -> bool:
        return key in self._meta

    def meta(self, key: str) -> ObjectMeta:
        try:
            return self._meta[key]
        except KeyError:
            raise NoSuchObjectError(key) from None

    def iter_meta(self) -> Iterator[ObjectMeta]:
        return iter(list(self._meta.values()))

    def object_count(self) -> int:
        return len(self._meta)

    def persist_meta(self, meta: ObjectMeta) -> None:
        """Send ``meta`` to the metadata store — the one way it gets
        there: when the outermost open write-back scope closes, or now
        when none is open."""
        self.meta_writeback.note(meta.key)
        if self.on_meta_change is not None:
            self.on_meta_change(meta.key)

    def create_object(
        self, key: str, size: int, tags: Optional[Set[str]] = None
    ) -> ObjectMeta:
        """Create (or refresh, on overwrite) the metadata for ``key``."""
        now = self.clock.now()
        existing = self._meta.get(key)
        if existing is not None:
            existing.modified(now)
            existing.size = size
            existing.dirty = False
            if tags:
                existing.tags |= tags
            self.persist_meta(existing)
            return existing
        meta = ObjectMeta(
            key=key,
            size=size,
            created_at=now,
            last_access=now,
            last_modified=now,
            tags=set(tags) if tags else set(),
        )
        self._meta[key] = meta
        self.persist_meta(meta)
        return meta

    def _drop_meta(self, key: str) -> None:
        """Forget ``key``: table, indexes and store (install_meta's
        inverse; the store delete defers like :meth:`persist_meta`)."""
        meta = self._meta.pop(key, None)
        if meta is not None:
            self._unindex(meta)
        self.meta_writeback.note(key)
        if self.on_meta_change is not None:
            self.on_meta_change(key)

    # -- de-duplication index (storeOnce) ---------------------------------

    def dedup_lookup(self, checksum: str) -> Optional[str]:
        return self._dedup.get(checksum)  # _drop_meta leaves no dead entry

    def dedup_register(self, checksum: str, key: str) -> None:
        self._dedup[checksum] = key
        meta = self.meta(key)
        meta.checksum = checksum
        self.persist_meta(meta)

    def alias_object(self, key: str, canonical_key: str) -> None:
        """Record that ``key``'s content is held by ``canonical_key``."""
        meta = self.meta(key)
        canonical = self.meta(canonical_key)
        if meta.alias_of == canonical_key:
            return
        if meta.alias_of is not None:
            self._unlink(self._aliases, meta.alias_of, key)
        meta.alias_of = canonical_key
        self._aliases.setdefault(canonical_key, {})[key] = None
        meta.checksum = canonical.checksum
        canonical.refcount += 1
        self.persist_meta(meta)
        self.persist_meta(canonical)

    def resolve_alias(self, key: str) -> str:
        """Follow alias links to the key that physically holds the bytes."""
        seen = set()
        current = key
        while True:
            meta = self.meta(current)
            if meta.alias_of is None:
                return current
            if current in seen:
                raise NoSuchObjectError(key)  # defensive: alias cycle
            seen.add(current)
            current = meta.alias_of

    # -- data path primitives (used by responses and the server) -----------

    def _crash_point(self, point: str) -> None:
        """A named operation boundary the crash sweep can kill us at."""
        injector = self.crash_points
        if injector is not None:
            injector.reach(point)

    def write_to_tier(
        self,
        key: str,
        data: bytes,
        tier_name: str,
        ctx: RequestContext,
        evict_to: Optional[str] = None,
        redirect: bool = True,
    ) -> None:
        """Place ``data`` for ``key`` in a tier, evicting LRU residents if
        the tier cannot fit it.

        Eviction target resolution: an explicit ``evict_to`` wins, else
        the instance's ``eviction_chain`` entry for this tier.  The
        special target :data:`DROP` discards victims from this tier
        without relocating them — valid only for victims that also live
        in some other tier (a cache over a durable store, Figure 12).

        With the resilience layer enabled the put runs under breaker +
        retry policy, and on final failure (``redirect=True``) the write
        degrades to a surviving tier, leaving a repair task behind.
        ``redirect=False`` is the layer's own writes — fallbacks,
        repairs — which must fail rather than cascade.
        """
        tier = self.tiers.get(tier_name)
        res = self.resilience
        if res is not None and not res.allow(tier):
            # Fail fast: an open breaker means we do not even try (no
            # 5-second timeout charged against a known-sick tier).
            err = res.open_error(tier)
            if redirect:
                res.redirect_write(key, data, tier_name, ctx, err)
                return
            raise err
        incoming = len(data) - (
            tier.service.size_of(key) if tier.contains(key) else 0
        )
        if evict_to is None:
            evict_to = self.eviction_chain.get(tier_name)
        if evict_to is not None:
            self._make_room(tier, incoming, evict_to, ctx, protect=key)
        if not tier.can_fit(incoming):
            raise NoCapacityError(tier_name, key)
        try:
            with _Journaled(self, "write", key, tier_name, data):
                if res is None:
                    tier.put(key, data, ctx)
                else:
                    res.guarded_put(tier, key, data, ctx)
                self._crash_point("write.data")
                meta = self.meta(key)
                meta.locations.add(tier_name)
                meta.size = len(data)
                self.persist_meta(meta)
                self._crash_point("write.meta")
                self.obs.heat.record_tier("put", tier_name, at=ctx.time)
        except (ServiceUnavailableError, BreakerOpenError) as exc:
            if res is None or not redirect:
                raise
            # The degraded write goes elsewhere, journaled by its own
            # write_to_tier call; this tier's intent was aborted.
            res.redirect_write(key, data, tier_name, ctx, exc)

    def write_fanout(
        self,
        key: str,
        data: bytes,
        tier_names: Sequence[str],
        ctx: RequestContext,
        evict_to: Optional[str] = None,
        redirect: bool = True,
    ) -> None:
        """Place ``data`` in several tiers, overlapped in virtual time.

        The inserts are independent — a Memcached put does not wait for
        the EBS put in a real multi-tier store — so they fan out
        (:func:`_fan_out`): the request pays ``max()`` over the tier
        inserts (plus any queueing each suffered on its tier's
        channels), not their sum, and the first failing insert stops
        later tiers and re-raises after the join.  A call that returns
        wrote every named tier (or, with ``redirect``, degraded it).
        """
        _fan_out(ctx, list(tier_names), lambda name, bctx: self.write_to_tier(
            key, data, name, bctx, evict_to=evict_to, redirect=redirect
        ))

    def relocate(
        self,
        key: str,
        to: Sequence[str],
        ctx: RequestContext,
        *,
        data: Optional[bytes] = None,
        prefer: Optional[str] = None,
        drop_from: Iterable[str] = (),
        redirect: bool = True,
    ) -> None:
        """The one cross-tier mover: land ``key``'s bytes in every tier
        of ``to``, then drop it from each tier of ``drop_from`` that is
        not a destination.

        The bytes are ``data``, or else a :meth:`read_raw` (``prefer``
        picks the source) — read only when ``to`` is non-empty.  The
        write is :meth:`write_fanout`'s, ``redirect`` included.
        ``drop_from`` is taken as it was on entry, so a degraded write's
        fallback tier is never dropped, and the drops run in name order.
        Whether a destination that already holds the key still needs the
        bytes is the caller's call; ``dirty`` is the policy's.
        """
        drop = sorted(set(drop_from) - set(to))
        if to:
            if data is None:
                data = self.read_raw(key, ctx, prefer=prefer)
            self.write_fanout(key, data, to, ctx, redirect=redirect)
        for tier_name in drop:
            self.remove_from_tier(key, tier_name, ctx)

    def _make_room(
        self,
        tier: Tier,
        incoming: int,
        evict_to: str,
        ctx: RequestContext,
        protect: str,
    ) -> None:
        """Evict least-recently-used residents until ``incoming`` fits.

        Evicting may overflow the destination too: its own write makes
        room down the instance's eviction chain (Table 2's exclusive
        Memcached -> EBS -> S3 arrangement).
        """
        drop_mode = evict_to == DROP
        dest = None if drop_mode else self.tiers.get(evict_to)
        while not tier.can_fit(incoming):
            victim = tier.oldest
            if victim is None or victim == protect:
                break
            held = self.meta(victim).locations  # no row: raise, move nothing
            if drop_mode and len(held) < 2:
                # The victim lives nowhere else; dropping would lose
                # data.  Refuse and let the caller hit NoCapacity.
                break
            # Skip a destination that physically holds the victim, even
            # a stale copy of it (ROADMAP item 1, defect (a)).
            to = () if drop_mode or dest.contains(victim) else (evict_to,)
            self.relocate(
                victim, to, ctx,
                data=tier.get(victim, ctx) if to else None,
                drop_from=(tier.name,),
            )

    def read_raw(
        self,
        key: str,
        ctx: RequestContext,
        prefer: Optional[str] = None,
    ) -> bytes:
        """Read an object's stored bytes from the best available tier.

        "Best" is the earliest tier in declaration order (the paper's
        specs declare fastest first) among the object's recorded
        locations; ``prefer`` overrides.  Aliases (storeOnce) resolve to
        their canonical content.

        Failover attempts overlap in virtual time: each tier actually
        tried runs on its own branch of a scatter/join, so a read that
        fails over from a timed-out tier to a healthy one costs
        ``max(timeout, healthy-read)`` rather than their sum — the
        hedged-request shape.  A tier already marked unavailable is
        skipped for free, as before.
        """
        physical = self.resolve_alias(key)
        meta = self.meta(physical)
        candidates: List[Tier] = []
        if prefer is not None and prefer in meta.locations:
            candidates.append(self.tiers.get(prefer))
        candidates.extend(
            t for t in self.tiers.ordered()
            if t.name in meta.locations and (prefer is None or t.name != prefer)
        )
        if not candidates:
            raise NoSuchObjectError(key)
        res = self.resilience
        causes: List = []  # (tier_name, exception) per tier tried
        corrupted: List[str] = []
        served: Optional[Tier] = None
        data = b""
        branches = ctx.scatter()
        for tier in candidates:
            if not tier.available:
                causes.append((tier.name, self._unavailable(tier)))
                continue
            bctx = branches.branch()
            try:
                if res is None:
                    data = tier.get(physical, bctx)
                else:
                    data = res.guarded_get(tier, physical, bctx)
            except BreakerOpenError as exc:
                causes.append((tier.name, exc))
                continue
            except ServiceUnavailableError as exc:
                causes.append((tier.name, exc))
                continue
            if (
                res is not None
                and res.verifiable(meta)
                and not res.verify(meta, data)
            ):
                # This copy is rotten: skip the tier (failover read) and
                # remember it for background read-repair from a good one.
                res.note_corruption(tier, physical)
                causes.append((tier.name, CorruptObjectError(physical, tier.name)))
                corrupted.append(tier.name)
                continue
            served = tier
            break
        branches.join()  # even a fruitless hedge's time is the client's
        if served is None:
            raise TierUnavailableError(key, causes=causes) from (
                causes[-1][1] if causes else None
            )
        if corrupted and res is not None:
            res.read_repair(physical, data, corrupted, ctx)
        # The "which tier served this GET?" answer: per-context (for the
        # OpResult envelope), aggregate (registry counter), and on the
        # trace root when tracing is active.
        ctx.served_by = served.name
        self._gets_served.inc(tier=served.name)
        self.obs.heat.record_tier("get", served.name, at=ctx.time)
        if ctx.trace is not None:
            ctx.trace.attrs["served_by"] = served.name
        return data

    def rewrite_everywhere(
        self,
        key: str,
        data: bytes,
        ctx: RequestContext,
        updates: Optional[Dict[str, object]] = None,
    ) -> None:
        """Replace an object's bytes in every tier currently holding it.

        ``updates`` are metadata attribute changes that must land
        atomically with the new bytes (the encrypt/compress responses'
        flag flips): they ride in the same journal intent, so a crash
        can never leave transformed bytes with an untransformed flag.
        """
        meta = self.meta(key)
        res = self.resilience

        def put(tier_name: str, bctx: RequestContext) -> None:
            tier = self.tiers.get(tier_name)
            if res is None:
                tier.put(key, data, bctx)
            else:
                res.guarded_put(tier, key, data, bctx)

        with _Journaled(self, "rewrite", key, data, updates):
            _fan_out(ctx, sorted(meta.locations), put)
            self._crash_point("rewrite.data")
            meta.size = len(data)
            for attr, value in (updates or {}).items():
                setattr(meta, attr, value)
            self.persist_meta(meta)

    def remove_from_tier(self, key: str, tier_name: str, ctx: RequestContext) -> None:
        tier = self.tiers.get(tier_name)
        with _Journaled(self, "remove", key, tier_name):
            if tier.contains(key):
                tier.delete(key, ctx)
            self._crash_point("remove.data")
            meta = self.meta(key)
            meta.locations.discard(tier_name)
            self.persist_meta(meta)

    def _detach_alias(self, meta: ObjectMeta) -> None:
        """Break an alias link (its canonical loses one reference)."""
        canonical = self._meta.get(meta.alias_of)
        if canonical is not None:
            canonical.refcount = max(0, canonical.refcount - 1)
            self.persist_meta(canonical)
        self._unlink(self._aliases, meta.alias_of, meta.key)
        meta.alias_of = None
        meta.locations = set()
        self.persist_meta(meta)

    def _handoff_holders(self, meta: ObjectMeta) -> Optional[List[Tier]]:
        """The tiers a canonical's bytes must be renamed in before its
        key can be overwritten or deleted — ``None`` when ``meta`` has
        no aliases (the usual case: one index lookup, no table walk).

        All or nothing: a holder that cannot be reached refuses the op
        here, before anything is renamed, so both keys keep reading the
        old content; skipping it would leave the heir recording a copy
        that still sits under the old key.
        """
        if meta.key not in self._aliases:
            return None
        holders = [
            tier for tier in map(self.tiers.get, sorted(meta.locations))
            if tier.contains(meta.key)
        ]
        down = [tier for tier in holders if not tier.available]
        if down:
            raise TierUnavailableError(meta.key, causes=[
                (tier.name, self._unavailable(tier)) for tier in down
            ])
        return holders

    @staticmethod
    def _unavailable(tier: Tier) -> ServiceUnavailableError:
        service = tier.service
        return ServiceUnavailableError(
            service.name, node=service.node.name, zone=service.node.zone.name
        )

    def _handoff_to_heir(
        self, meta: ObjectMeta, holders: List[Tier], ctx: RequestContext
    ) -> None:
        """Rename a canonical's physical bytes to its heir and repoint
        the other aliases at it.

        The heir is the earliest-linked alias still pointing here —
        link order, not creation order: a key re-aliased to this content
        after its creation queues behind the aliases linked before it.
        (After a reopen, link order is the store's row order.)

        The alias index is left alone until every tier has renamed: a
        tier op that raises (no room for the second copy, an injected
        fault) leaves the links in place, so a retry hands off again.
        No intent covers the rename, so its rows are written at once.
        """
        heir_key, *others = self._aliases[meta.key]
        heir = self._meta[heir_key]
        for tier in holders:
            blob = tier.get(meta.key, ctx)
            tier.put(heir.key, blob, ctx)
            tier.delete(meta.key, ctx)
        del self._aliases[meta.key]
        heir.alias_of = None
        heir.locations = set(meta.locations)
        heir.size = meta.size
        heir.checksum = meta.checksum
        heir.refcount = len(others)
        if others:
            self._aliases[heir.key] = dict.fromkeys(others)
        for key in others:
            other = self._meta[key]
            other.alias_of = heir.key
            self.persist_meta(other)
        if meta.checksum:
            self._dedup[meta.checksum] = heir.key
        self.persist_meta(heir)
        self.meta_writeback.flush()
        meta.locations = set()
        meta.refcount = 0  # all aliases now point at the heir

    def _drop_dedup_entry(self, meta: ObjectMeta) -> None:
        if meta.checksum and self._dedup.get(meta.checksum) == meta.key:
            del self._dedup[meta.checksum]

    def prepare_overwrite(self, key: str, ctx: RequestContext) -> None:
        """Make overwriting ``key`` safe for the dedup machinery.

        Called by the server before an overwrite PUT: an alias detaches
        from its canonical (the new content is independent); a canonical
        with live aliases hands its bytes to an heir first (so the
        aliases keep reading the old content); and the key's old
        checksum mapping leaves the dedup index (otherwise a later
        duplicate of the *old* content would alias to the *new* bytes).
        """
        meta = self._meta.get(key)
        if meta is None:
            return
        if meta.alias_of is not None:
            self._detach_alias(meta)
            return
        holders = self._handoff_holders(meta)
        if holders is not None:
            self._handoff_to_heir(meta, holders, ctx)
            return
        self._drop_dedup_entry(meta)

    def delete_object(self, key: str, ctx: RequestContext) -> None:
        """Remove an object from every tier and forget its metadata.

        storeOnce interactions: deleting an alias just drops the link
        (and the canonical's refcount); deleting a canonical object that
        still has aliases hands the physical bytes over to one of them.
        """
        meta = self.meta(key)
        heir_holders = self._handoff_holders(meta)  # may refuse: no tombstone yet
        res = self.resilience
        emptied: List[str] = []

        def drop(tier: Tier, bctx: RequestContext) -> None:
            if res is None:
                tier.delete(key, bctx)
            else:
                res.guarded_delete(tier, key, bctx)
            emptied.append(tier.name)

        with _Journaled(self, "delete", key):
            if meta.alias_of is not None:
                self._detach_alias(meta)
            elif heir_holders is not None:
                self._handoff_to_heir(meta, heir_holders, ctx)
            else:
                holders = [
                    self.tiers.get(name) for name in sorted(meta.locations)
                ]
                holders = [t for t in holders if t.contains(key) and t.available]
                try:
                    _fan_out(ctx, holders, drop)
                except Exception:
                    # The row unlists each tier whose delete landed.
                    meta.locations.difference_update(emptied)
                    self.persist_meta(meta)
                    raise
                self._crash_point("delete.data")
                for tier in holders:
                    self.obs.heat.record_tier("delete", tier.name, at=ctx.time)
            self._drop_meta(key)

    # -- object versioning (extension: paper §2.2 future work) --------------

    def enable_versioning(
        self, tier: Optional[str] = None, max_versions: int = 3
    ) -> None:
        """Keep up to ``max_versions`` prior versions of every object.

        On overwrite, the current bytes are preserved as ``key@vN``
        (N = the version being replaced) in ``tier`` (default: the
        object's slowest current tier).  Old versions are trimmed FIFO.
        """
        if max_versions < 1:
            raise ValueError("max_versions must be at least 1")
        if tier is not None and not self.tiers.has(tier):
            raise UnknownTierError(tier)
        self.versioning_enabled = True
        self.versioning_tier = tier
        self.max_versions = max_versions

    def preserve_version(self, key: str, ctx: RequestContext) -> Optional[str]:
        """Snapshot ``key``'s current bytes before an overwrite.

        Returns the version key created, or ``None`` when there is
        nothing to preserve.  Called by the server when versioning is
        enabled.
        """
        meta = self._meta.get(key)
        if meta is None or (not meta.locations and meta.alias_of is None):
            return None
        data = self.read_raw(key, ctx)
        version_key = f"{key}@v{meta.version}"
        target = self.versioning_tier
        if target is None:
            candidates = [t for t in self.tiers.ordered() if t.name in meta.locations]
            target = candidates[-1].name if candidates else self.tiers.first().name
        self.create_object(version_key, len(data), tags={"version"})
        self._versions.setdefault(key, {})[version_key] = meta.version
        self.relocate(version_key, (target,), ctx, data=data)
        self._trim_versions(key, ctx)
        return version_key

    def versions_of(self, key: str) -> List[str]:
        """Preserved version keys for ``key``, oldest first."""
        numbered = self._versions.get(key, {})
        return sorted(numbered, key=lambda name: (numbered[name], name))

    def _trim_versions(self, key: str, ctx: RequestContext) -> None:
        versions = self.versions_of(key)
        while len(versions) > self.max_versions:
            self.delete_object(versions.pop(0), ctx)

    # -- resilience (retries / breakers / degraded-mode serving) ------------

    def enable_resilience(self):
        """Turn on the resilience layer for this instance's data path.

        Idempotent; returns the layer, whose retry and breaker values
        are :mod:`repro.core.resilience`'s constants.  Enabling the
        layer with no faults active changes nothing observable: the
        success path performs no RNG draws, schedules no clock events,
        and charges no virtual time.
        """
        if self.resilience is None:
            from repro.core.resilience import ResilienceLayer

            self.resilience = ResilienceLayer(self)
        return self.resilience

    # -- durability (intent journal / recovery / fsck) ----------------------

    def enable_durability(self, journal_store=None, recover: bool = True):
        """Turn on crash-consistent journaling for this instance.

        Idempotent; returns the :class:`~repro.core.durability.DurabilityLayer`.
        Journal records live in ``journal_store`` (default: the
        instance's own metadata store, under a reserved key prefix).
        ``recover=True`` immediately rolls forward whatever a previous
        incarnation left in flight and scrubs the result (fsck with
        repair) — the reopen-after-crash path.
        """
        if self.durability is None:
            from repro.core.durability import DurabilityLayer

            self.durability = DurabilityLayer(self, journal_store)
            if recover:
                self.durability.recover()
        return self.durability

    # -- backups (incremental snapshots / PITR / verification) ---------------

    def enable_backups(
        self,
        root: str,
        segment_records: Optional[int] = None,
        assume_continuity: bool = False,
    ):
        """Attach a backup store rooted at directory ``root``.

        Idempotent; returns the :class:`~repro.core.backup.BackupManager`.
        Requires (and if necessary enables) the durability layer — the
        backup WAL is the archived form of its intent journal.
        ``assume_continuity=True`` declares that every journal record
        since the store's last snapshot was archived (the
        reopen-after-crash path over the same root); otherwise a
        non-empty store forces the next snapshot to be full.
        """
        if self.backup is None:
            from repro.core.backup import BackupManager

            self.enable_durability(recover=False)
            kwargs = {}
            if segment_records is not None:
                kwargs["segment_records"] = segment_records
            self.backup = BackupManager(
                self, root, assume_continuity=assume_continuity, **kwargs
            )
        return self.backup

    # -- workload heat telemetry ---------------------------------------------

    def enable_heat(self, **config):
        """Turn on the workload heat tracker for this instance.

        Idempotent; returns the hub's
        :class:`~repro.obs.heat.HeatTracker`.  Keyword arguments pass
        through to :meth:`~repro.obs.heat.HeatTracker.enable`
        (``windows=``, ``top_k=``, ``max_objects=``,
        ``sample_interval=``, ``hot_min=``).  Wires the tracker's
        occupancy source to this instance's live tier state so the
        per-tier utilization timeline samples real fill levels.
        """
        tracker = self.obs.heat.enable(**config)
        tracker.occupancy_source = self._heat_occupancy
        return tracker

    # -- adaptive placement ---------------------------------------------------

    def enable_placement(self, **config):
        """Turn on the heat-driven adaptive placement engine.

        Idempotent (a second call reconfigures in place); returns the
        :class:`~repro.core.placement.PlacementEngine`.  Keyword
        arguments pass through to the engine (``objective=``,
        ``interval=``, ``hysteresis=``, ``min_score=``, ``max_moves=``,
        ``prewarm_limit=``, ``high_watermark=``, ``refine=``, plus
        ``start_timer=`` on first enable).  Placement plans are driven
        by heat measurements, so the heat tracker is enabled with its
        defaults if it is not already on.
        """
        if not self.obs.heat.enabled:
            self.enable_heat()
        elif self.obs.heat.occupancy_source is None:
            self.obs.heat.occupancy_source = self._heat_occupancy
        if self.placement is None:
            from repro.core.placement import PlacementEngine

            self.placement = PlacementEngine(self, **config)
        else:
            config.pop("start_timer", None)
            self.placement.reconfigure(**config)
        return self.placement

    def _heat_occupancy(self):
        """Live ``(tier, used, capacity)`` rows for the heat timeline."""
        return [
            (
                tier.name,
                tier.used,
                -1 if tier.capacity is None else tier.capacity,
            )
            for tier in self.tiers.ordered()
        ]

    def state_digest(self, durable_only: bool = False) -> str:
        """Deterministic fingerprint of stored state.

        Hashes the metadata table (keys, sizes, locations, versions,
        checksums) and every tier's physical contents; two runs of the
        same seeded scenario must produce identical digests.  Metadata
        only — computing it charges no virtual time.

        ``durable_only=True`` is the fingerprint of what survives a
        process crash, which is what a snapshot archives — the digest
        :func:`repro.core.durability.archived_state` puts in a snapshot
        manifest: durable tiers' contents, and objects holding at least
        one durable copy (locations filtered to durable tiers; aliases
        count through their canonical).  The crash sweep compares this
        form across a kill/reopen boundary, where volatile-tier state is
        lost by design.
        """
        if durable_only:
            from repro.core.durability import archived_state

            return archived_state(self)[2]
        meta_rows = [
            (key, m.size, tuple(sorted(m.locations)), m.version, m.checksum)
            for key, m in ((k, self._meta[k]) for k in sorted(self._meta))
        ]
        tier_rows = [
            (t.name, {k: t.service._data[k] for k in t.keys()})
            for t in self.tiers.ordered()
        ]
        return state_fingerprint(meta_rows, tier_rows)

    # -- runtime reconfiguration (§4.2.3 / Figure 17) ----------------------

    def reconfigure(
        self,
        add_tiers: Iterable[Tier] = (),
        remove_tiers: Iterable[str] = (),
        add_rules: Iterable[Rule] = (),
        remove_rules: Iterable[str] = (),
        replace_policy: Optional[Sequence[Rule]] = None,
    ) -> None:
        """Apply a live configuration change, atomically from the policy's
        point of view (timers re-sync once, after all changes)."""
        for tier in add_tiers:
            self.tiers.add(tier)
        for name in remove_tiers:
            removed = self.tiers.remove(name)
            for meta in self._meta.values():
                meta.locations.discard(removed.name)
        if replace_policy is not None:
            self.policy.replace_all(list(replace_policy))
        else:
            for name in remove_rules:
                self.policy.remove(name)
            for rule in add_rules:
                self.policy.add(rule)

    # -- accounting --------------------------------------------------------

    def _collect_gauges(self, registry) -> None:
        """Snapshot-time gauge refresh: tier fill and object counts."""
        used = registry.gauge(
            "tiera_tier_used_bytes", "Bytes currently stored per tier."
        )
        cap = registry.gauge(
            "tiera_tier_capacity_bytes",
            "Provisioned tier capacity (-1 when unlimited).",
        )
        up = registry.gauge(
            "tiera_tier_available", "1 when the tier answers requests."
        )
        for tier in self.tiers:
            used.set(tier.used, instance=self.name, tier=tier.name)
            cap.set(
                -1 if tier.capacity is None else tier.capacity,
                instance=self.name,
                tier=tier.name,
            )
            up.set(1 if tier.available else 0, instance=self.name, tier=tier.name)
        registry.gauge(
            "tiera_objects", "Objects in the instance's metadata table."
        ).set(self.object_count(), instance=self.name)

    def monthly_cost(self) -> float:
        """Monthly storage cost of the provisioned configuration, dollars."""
        total = 0.0
        for tier in self.tiers:
            if tier.colocated:
                continue
            provisioned = tier.capacity if tier.capacity is not None else tier.used
            total += self.price_book.monthly_storage_cost(tier.kind, provisioned)
        return total

    def cost_per_gb_month(self) -> float:
        """Blended $/GB-month across the provisioned capacities."""
        provisioned = sum(
            (t.capacity if t.capacity is not None else t.used) for t in self.tiers
        )
        if provisioned == 0:
            return 0.0
        return self.monthly_cost() / (provisioned / (1024 ** 3))

    def shutdown(self) -> None:
        if self.placement is not None:
            self.placement.detach()
        self.control.shutdown()
        if self.resilience is not None:
            self.resilience.detach()
        if self.backup is not None:
            self.backup.close()
        if self.durability is not None:
            self.durability.close()
        self.obs.metrics.remove_collector(self._collect_gauges)
        heat = getattr(self.obs, "heat", None)
        if heat is not None and heat.occupancy_source == self._heat_occupancy:
            heat.occupancy_source = None
            heat.shutdown()
        self.metadata_store.close()

    def __repr__(self) -> str:
        return (
            f"<TieraInstance {self.name!r} tiers={self.tiers.names()} "
            f"objects={len(self._meta)} rules={len(self.policy)}>"
        )
