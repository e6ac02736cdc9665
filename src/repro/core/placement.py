"""Heat-driven adaptive placement: act on what the heat tracker measures.

PR 9 landed the measurement half of ROADMAP item 1 — per-object EWMA
heat, a Space-Saving hot set, and tier occupancy timelines.  This module
is the acting half: a placement engine that consumes those summaries and
promotes, demotes, and pre-warms objects across tiers against a
configurable cost-vs-latency objective, the file-popularity-driven
tiering of Herodotou & Kakoulli's "Automating Distributed Tiered Storage
Management" grafted onto Tiera's policy machinery.

The engine is deliberately a *planner + executor* split:

``plan()``
    A pure function of tracker state, tier occupancy, and virtual time.
    Each candidate move is scored greedily::

        score = latency_weight · heat · (lat_src − lat_dst) · 1000
              + cost_weight · (rate_src − rate_dst) · size_gb · 1000
              − move_cost − capacity_pressure

    Admission and eviction deliberately read *different* signals (the
    LRFU/ARC hybrid shape): a key is promoted only once the Space-Saving
    sketch confirms sustained frequency (``hot_min``), so a one-off scan
    read — whose instantaneous EWMA briefly spikes to ``1/window`` —
    never pollutes a fast tier; demotion eligibility instead follows the
    EWMA rate alone, because sketch counts never decay and yesterday's
    hot key must be evictable once its recent rate collapses.  Plans are
    damped with hysteresis (a key moved recently is left alone so hot
    keys don't thrash) and a high-watermark capacity penalty.  A
    refinement pass then runs a bounded local search over the greedy plan:
    promotions that didn't fit are paired with demoting the coldest
    resident of the target tier when the swap's combined gain is
    positive (the spirit of the Data-in-Motion ``p_hot`` + MILP
    placement, without the solver).

``run_cycle()``
    Executes a plan through the instance's journaled data-path
    primitives, emits ``tiera_placement_*`` metrics, and appends an
    audit record under the ``placement`` category.

The engine owns no timer.  Its cadence is a policy rule, like every
other piece of Tiera's background work: ``configure("placement", ...)``
installs (or replaces) one timer rule named :data:`PLACEMENT_RULE` whose
response is :class:`repro.core.responses.AdaptivePlacement`, and a spec
can compose the same response under any event of its own.  Either way
the control layer fires the rule and the response runs one cycle.
"""

from __future__ import annotations

import heapq
import math
from contextlib import closing
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.obs.registry import ChildCache, owner_count
from repro.simcloud.resources import RequestContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.instance import TieraInstance

#: Objective presets: name -> (latency_weight, cost_weight).  "latency"
#: pays for speed (retains data in fast tiers), "cost" evicts
#: aggressively toward cheap tiers, "balanced" sits between.
OBJECTIVES: Dict[str, Tuple[float, float]] = {
    "balanced": (1.0, 1.0),
    "latency": (4.0, 0.25),
    "cost": (0.25, 4.0),
}

GB = 1024 ** 3

DEFAULT_OBJECTIVE = "balanced"
DEFAULT_INTERVAL = 60.0
DEFAULT_MIN_SCORE = 0.05
DEFAULT_MAX_MOVES = 8
DEFAULT_PREWARM_LIMIT = 2
DEFAULT_HIGH_WATERMARK = 0.90
DEFAULT_REFINE_BUDGET = 16

#: The timer rule ``configure("placement", ...)`` installs, by name and
#: as spec text (its arguments are the engine's objective and interval).
PLACEMENT_RULE = "adaptive-placement"
PLACEMENT_SPEC = """
Tiera Placement(time interval, objective) {
    event "adaptive-placement"(time=interval) : response {
        adaptive_placement(objective: objective, interval: interval);
    }
}
"""

#: Settable placement options and the type each value is coerced to.
OPTIONS = {
    "objective": str, "interval": float, "hysteresis": float,
    "min_score": float, "max_moves": int, "prewarm_limit": int,
    "high_watermark": float,
}

#: Fixed score charged per move (churn is never free) plus a transfer
#: term per GiB moved, in the same dimensionless "score points" the
#: latency and cost terms are normalized to.
MOVE_COST_BASE = 0.001
MOVE_COST_PER_GB = 4.0

#: Score points per (seconds-saved-per-second); 1000 puts a 1 op/s key
#: crossing a ~3 ms tier gap at ~3 points.
LATENCY_SCALE = 1000.0

#: Score points per $/month of storage-cost delta on the moved bytes.
COST_SCALE = 1000.0

#: Penalty at 100% projected fill of the destination tier; scales
#: linearly from zero at the high watermark.
PRESSURE_SCALE = 4.0

#: Payload size used to rank tiers fast -> slow (the request-overhead
#: term dominates at this size for every built-in latency model).
REFERENCE_SIZE = 4096

#: ``ln`` of the smallest heat a coldness-index walk orders by κ alone.
#: Below ``e**-640`` (about 1e-278) ``exp`` nears the subnormal range,
#: where the computed heats lose the relative precision that makes κ
#: order them, and reach exactly 0.0 past ~745 windows idle; a walk
#: that gets this deep pulls the whole zone and sorts it exactly.
DEEP_LN_HEAT = -640.0

#: Relative rounding allowance on κ: far above the ~1e-15 that one
#: ``log``, ``exp`` and division lose, far below any real heat gap.
ROUNDING = 1e-9


def check_options(options: Dict[str, object]) -> Dict[str, object]:
    """Validate placement options before anything is changed.

    Returns the options that are set (``None`` means "leave as is"),
    coerced to their :data:`OPTIONS` types.  An unknown option raises
    ``TypeError`` and an out-of-range value ``ValueError``; the spec
    compiler re-raises both as a line-numbered ``PolicyError``.
    """
    unknown = set(options) - set(OPTIONS)
    if unknown:
        raise TypeError(
            f"unknown placement option(s): {', '.join(sorted(unknown))}"
        )
    checked = {
        name: OPTIONS[name](value)
        for name, value in options.items() if value is not None
    }
    if checked.get("objective", DEFAULT_OBJECTIVE) not in OBJECTIVES:
        raise ValueError(
            f"unknown objective {checked['objective']!r}; expected one of "
            f"{', '.join(sorted(OBJECTIVES))}"
        )
    if checked.get("interval", DEFAULT_INTERVAL) <= 0:
        raise ValueError("interval must be positive")
    if checked.get("hysteresis", 0.0) < 0:
        raise ValueError("hysteresis cannot be negative")
    if not 0.0 < checked.get("high_watermark", DEFAULT_HIGH_WATERMARK) <= 1.0:
        raise ValueError("high_watermark must be in (0, 1]")
    for count_opt in ("max_moves", "prewarm_limit"):
        if checked.get(count_opt, 0) < 0:
            raise ValueError(f"{count_opt} cannot be negative")
    return checked


def expected_latency(model, nbytes: int) -> float:
    """Deterministic expected service time of a latency model.

    Planning must not consume randomness (the plan is a pure function
    of tracker state), so instead of sampling we walk the model shape:
    size-dependent models recurse into their base and add the transfer
    term, lognormal models contribute their median, fixed models their
    constant.
    """
    base = getattr(model, "base", None)
    if base is not None:
        bps = getattr(model, "bytes_per_second", 0.0)
        transfer = nbytes / bps if bps else 0.0
        return expected_latency(base, nbytes) + transfer
    median = getattr(model, "median", None)
    if median is not None:
        return float(median)
    seconds = getattr(model, "seconds", None)
    if seconds is not None:
        return float(seconds)
    return 0.0


#: One index entry: ``(κ, last_access, key, src, rate)``.
Entry = Tuple[float, float, str, str, float]


class ColdnessIndex:
    """The copies a plan may demote, coldest first, without a table scan
    (docs/PLACEMENT.md, "Coldest first without a scan").

    ``heat = rate·exp(−(now − last_access)/w)``, so ordering copies by
    ``κ = ln rate + last_access/w`` gives the same coldest-first order at
    every ``now``.  Each tier with a slower sibling has a heap of
    :data:`Entry` tuples, one live entry per resident copy (``κ = −∞``
    for a key the tracker does not hold: heat 0.0, ordered by key, just
    as a sort by heat would).  Deletion is lazy: a walk checks each
    entry it pops against the table and the tracker, a refresh retires
    the entries of copies a key no longer has, and the heaps are rebuilt
    from the live entries once they hold twice as many.

    A touch only warms a key, so a stale entry surfaces before the key's
    true position and is re-pushed then; touches need no feed.  What can
    make an entry colder or new is fed into :attr:`dirty` — every row
    change (``TieraInstance.persist_meta``) and every key the tracker's
    table cap drops — and refreshed at the next :meth:`sync`.  The index
    is the engine's own cache: planning still reads instance state only.
    """

    def __init__(self, instance: "TieraInstance"):
        self.instance = instance
        self.tracker = instance.obs.heat
        #: keys whose row changed, or whose heat the tracker dropped,
        #: since the last :meth:`sync`
        self.dirty: Dict[str, None] = {}
        self._shape: Optional[Tuple[Tuple[str, ...], float]] = None
        self._table: Optional[Dict[str, object]] = None
        self._heaps: Dict[str, List[Entry]] = {}
        self._live: Dict[Tuple[str, str], Entry] = {}
        self._rate_max = 1.0  # at least every entry's rate since the rebuild

    def sync(self, order: List[str], now: float) -> None:
        """Bring the index up to date for a plan: rebuild it when the
        tier order, the heat window or the meta table changed, else
        refresh the dirty keys."""
        # Request threads keep feeding ``dirty`` (a live server's timer
        # fires on its own thread): take keys out one at a time, and
        # empty it before a rebuild reads the table.
        dirty = self.dirty
        table = self.instance._meta
        shape = (tuple(order), self.tracker.windows[0])
        if shape != self._shape or table is not self._table:
            dirty.clear()
            self._rebuild(shape, table)
            return
        while dirty:
            self._refresh(dirty.popitem()[0])
        if sum(map(len, self._heaps.values())) > 2 * len(self._live) + 64:
            self._compact()

    def _rebuild(self, shape, table) -> None:
        self._shape, self._table = shape, table
        self._heaps = {src: [] for src in shape[0][:-1]}
        self._live = {}
        self._rate_max = 1.0
        for key, meta in table.items():
            state = self.tracker.state(key)
            for src in meta.copies():
                heap = self._heaps.get(src)
                if heap is not None:
                    heap.append(self._entry(key, src, state))
        for heap in self._heaps.values():
            heapq.heapify(heap)

    def _refresh(self, key: str) -> None:
        """Give each indexed copy of ``key`` a live entry as of now, and
        retire the entries of copies it no longer has."""
        meta = self._table.get(key)
        held = meta.copies() if meta is not None else ()
        live = self._live
        state = None
        for src, heap in self._heaps.items():
            entry = live.get((key, src))
            if src not in held:
                if entry is not None:
                    del live[key, src]
                continue
            if state is None:
                state = self.tracker.state(key)
            # A live entry no warmer than the key stays (touches only
            # warm); a new copy, or a key the tracker dropped, gets one.
            if entry is None or (self._kappa(state), state[1]) < entry[:2]:
                heapq.heappush(heap, self._entry(key, src, state))

    def _compact(self) -> None:
        """Rebuild the heaps from the live entries alone."""
        heaps = {src: [] for src in self._heaps}
        for entry in self._live.values():
            heaps[entry[3]].append(entry)
        for heap in heaps.values():
            heapq.heapify(heap)
        self._heaps = heaps

    def _entry(self, key: str, src: str, state: Tuple[float, float]) -> Entry:
        """The live entry of ``key``'s copy in ``src``."""
        rate, last_access = state
        if rate > self._rate_max:
            self._rate_max = rate
        entry = (self._kappa(state), last_access, key, src, rate)
        self._live[key, src] = entry
        return entry

    def _kappa(self, state: Tuple[float, float]) -> float:
        """``ln rate + last_access/w``: ``−∞`` for an untracked key."""
        rate, last_access = state
        if not rate:
            return -math.inf
        return math.log(rate) + last_access / self._shape[1]

    def walk(
        self, srcs: Iterable[str], now: float
    ) -> Iterator[Tuple[float, float, str, str, object]]:
        """``(heat, last_access, key, src, meta)`` of every copy in the
        tiers ``srcs``, in ascending order of the first four — exactly
        what sorting a scan of the table would give — pulling from the
        heaps only the prefix the caller reads (plus the entries it
        cannot yet rule out).  Close it when done: the pulled entries go
        back then.  Call :meth:`sync` first."""
        tracker, table, live = self.tracker, self._table, self._live
        window = self._shape[1]
        # A key last touched after ``now`` does not decay (heat_rate's
        # no-decay branch): its heat may sit this far below its κ.
        ahead = max(0.0, (tracker.last_seen - now) / window)
        heaps = [self._heaps[src] for src in srcs]
        pending: List[tuple] = []  # (heat, last_access, key, src, entry)
        held: List[Entry] = []
        try:
            while True:
                for heap in heaps:
                    while heap and (
                        not pending or self._may_precede(
                            heap[0], pending[0], now, window, ahead)
                    ):
                        entry = heapq.heappop(heap)
                        key, src = entry[2], entry[3]
                        if live.get((key, src)) is not entry:
                            continue  # superseded
                        meta = table.get(key)
                        if meta is None or not meta.holds(src):
                            del live[key, src]
                            continue
                        state = tracker.state(key)
                        if state != (entry[4], entry[1]):
                            # touched or re-tracked since: back at its κ
                            heapq.heappush(heap, self._entry(key, src, state))
                            continue
                        heat = tracker.heat_rate(key, now)
                        held.append(entry)
                        heapq.heappush(
                            pending, (heat, entry[1], key, src, entry)
                        )
                if not pending:
                    return
                heat, last_access, key, src, _ = heapq.heappop(pending)
                yield heat, last_access, key, src, table[key]
        finally:
            for entry in held:
                heapq.heappush(self._heaps[entry[3]], entry)

    def _may_precede(self, top: Entry, head: tuple, now, window, ahead) -> bool:
        """Whether the unpulled entry ``top`` (and so anything under it)
        may sort before or level with the pending ``head``."""
        if top[0] == -math.inf:
            return (0.0, top[1], top[2], top[3]) < head[:4]
        # Past the deep cut every unpulled heat is computed to full
        # relative precision, so κ decides up to the rounding allowance.
        deep = now / window + math.log(self._rate_max) + DEEP_LN_HEAT
        bound = max(head[4][0], deep)
        margin = ROUNDING * (1.0 + abs(bound) + abs(now) / window)
        return top[0] - ahead <= bound + margin


class PlacementEngine:
    """Greedy, hysteresis-damped promote/demote/pre-warm planner."""

    def __init__(self, instance: "TieraInstance", **options):
        self.instance = instance
        self.clock = instance.clock
        self.tracker = instance.obs.heat
        self.objective = DEFAULT_OBJECTIVE
        self.interval = DEFAULT_INTERVAL
        self.hysteresis = 2 * DEFAULT_INTERVAL
        self.min_score = DEFAULT_MIN_SCORE
        self.max_moves = DEFAULT_MAX_MOVES
        self.prewarm_limit = DEFAULT_PREWARM_LIMIT
        self.high_watermark = DEFAULT_HIGH_WATERMARK
        self._hysteresis_explicit = False
        self._last_moved: Dict[str, float] = {}
        self._last_cycle: Optional[Dict[str, object]] = None
        self.owner = instance.owner
        #: the demotion side's coldest-first source
        self.index = ColdnessIndex(instance)
        self._install_metrics()
        self.reconfigure(**options)

    def reconfigure(self, **options) -> "PlacementEngine":
        """Apply :data:`OPTIONS` in place (idempotent; validates before
        mutating).  Until ``hysteresis`` is set explicitly it tracks
        twice the interval."""
        checked = check_options(options)
        if "interval" in checked and not self._hysteresis_explicit:
            self.hysteresis = 2 * checked["interval"]
        if "hysteresis" in checked:
            self._hysteresis_explicit = True
        for name, value in checked.items():
            setattr(self, name, value)
        return self

    @property
    def running(self) -> bool:
        """Whether the control layer holds an armed timer for the
        :data:`PLACEMENT_RULE` rule."""
        return self.instance.control.armed(PLACEMENT_RULE)

    # -- counts: read-only views over this engine's own cells -------------

    cycles = owner_count("_m_cycles")
    moves = owner_count("_m_moves")
    bytes_moved = owner_count("_m_bytes")

    def _install_metrics(self) -> None:
        """This engine's cells, bound under its instance's owner id."""
        m, owner = self.instance.obs.metrics, self.owner
        self._m_cycles = m.counter(
            "tiera_placement_cycles_total",
            "Adaptive placement cycles executed",
        )
        self._cycle_cell = self._m_cycles.child(instance=owner)
        self._m_moves = m.counter(
            "tiera_placement_moves_total",
            "Objects moved by the placement engine, by action",
        )
        self._move_cells = ChildCache(
            lambda action: self._m_moves.child(instance=owner, action=action)
        )
        self._m_bytes = m.counter(
            "tiera_placement_bytes_moved_total",
            "Payload bytes moved by the placement engine",
        )
        self._bytes_cell = self._m_bytes.child(instance=owner)
        skipped = m.counter(
            "tiera_placement_skipped_total",
            "Candidate moves the planner rejected, by reason",
        )
        self._skip_cells = ChildCache(
            lambda reason: skipped.child(instance=owner, reason=reason)
        )
        self._m_plan_size = m.gauge(
            "tiera_placement_plan_size",
            "Decisions in the most recent placement plan",
        )

    # -- scoring -------------------------------------------------------------

    def weights(self) -> Tuple[float, float]:
        return OBJECTIVES[self.objective]

    def _tier_order(self) -> List[str]:
        """Tier names fastest -> slowest by expected read latency."""
        ranked = []
        for index, tier in enumerate(self.instance.tiers):
            lat = expected_latency(tier.service.latency, REFERENCE_SIZE)
            ranked.append((lat, index, tier.name))
        ranked.sort()
        return [name for _, _, name in ranked]

    def _read_latency(self, tier_name: str, nbytes: int) -> float:
        tier = self.instance.tiers.get(tier_name)
        return expected_latency(tier.service.latency, nbytes)

    def _storage_rate(self, tier_name: str) -> float:
        """$/GB-month of the tier's product (0.0 if unpriced)."""
        tier = self.instance.tiers.get(tier_name)
        try:
            return self.instance.price_book.storage_rate(tier.kind)
        except KeyError:
            return 0.0

    def score_move(
        self,
        heat: float,
        src: str,
        dst: str,
        nbytes: int,
        pressure: float = 0.0,
    ) -> float:
        """Greedy benefit of serving ``nbytes`` from ``dst`` instead of
        ``src`` for a key accessed ``heat`` times per virtual second."""
        lw, cw = self.weights()
        size_gb = max(nbytes, 1) / GB
        latency_gain = heat * (
            self._read_latency(src, nbytes) - self._read_latency(dst, nbytes)
        )
        cost_gain = (
            self._storage_rate(src) - self._storage_rate(dst)
        ) * size_gb
        move_cost = MOVE_COST_BASE + MOVE_COST_PER_GB * size_gb
        return (
            lw * latency_gain * LATENCY_SCALE
            + cw * cost_gain * COST_SCALE
            - move_cost
            - pressure
        )

    def _pressure(self, projected: Dict[str, int], dst: str, nbytes: int) -> float:
        """Capacity-pressure penalty for adding ``nbytes`` to ``dst``."""
        tier = self.instance.tiers.get(dst)
        if tier.capacity in (None, 0):
            return 0.0
        fill_after = (projected[dst] + nbytes) / tier.capacity
        if fill_after <= self.high_watermark:
            return 0.0
        over = (fill_after - self.high_watermark) / (1.0 - self.high_watermark + 1e-9)
        return PRESSURE_SCALE * min(over, 1.0)

    # -- planning ------------------------------------------------------------

    def plan(self, now: Optional[float] = None) -> Dict[str, object]:
        """Score candidates and emit a JSON-able decision list.

        Pure with respect to instance state: no data moves, no RNG, no
        metrics — calling ``plan()`` twice yields the identical plan.
        """
        if now is None:
            now = self.clock.now()
        order = self._tier_order()
        rank = {name: i for i, name in enumerate(order)}
        projected = {
            tier.name: tier.used for tier in self.instance.tiers
        }
        decisions: List[Dict[str, object]] = []
        skipped: List[Dict[str, object]] = []
        blocked: List[Dict[str, object]] = []
        planned_keys = set()
        considered = 0
        moves_left = self.max_moves
        prewarms_left = self.prewarm_limit

        def skip(key: str, reason: str) -> None:
            skipped.append({"key": key, "reason": reason})

        # Promotions / pre-warms: hottest first, straight off the sketch.
        # hot_keys() is hot_min-gated (guaranteed count, error deducted),
        # so a scan one-off never becomes a promotion candidate no
        # matter how high its instantaneous EWMA spikes.
        for key in self.tracker.hot_keys():
            if moves_left <= 0:
                break
            considered += 1
            if not self.instance.has_object(key):
                skip(key, "missing")
                continue
            meta = self.instance.meta(key)
            current = [t for t in meta.copies() if t in rank]
            if not current:
                skip(key, "untiered")
                continue
            src = min(current, key=lambda t: rank[t])
            dst = next(
                (t for t in order if rank[t] < rank[src] and not meta.holds(t)),
                None,
            )
            if dst is None:
                continue  # already in the fastest tier that exists
            if now - self._last_moved.get(key, -1e18) < self.hysteresis:
                skip(key, "hysteresis")
                continue
            heat = self.tracker.heat_rate(key, now)
            last_access = self.tracker.last_access(key)
            tier = self.instance.tiers.get(dst)
            if tier.capacity is not None and (
                projected[dst] + meta.size > tier.capacity
            ):
                blocked.append({
                    "key": key, "src": src, "dst": dst,
                    "size": meta.size, "heat": heat,
                })
                skip(key, "capacity")
                continue
            pressure = self._pressure(projected, dst, meta.size)
            score = self.score_move(heat, src, dst, meta.size, pressure)
            if score < self.min_score:
                skip(key, "score")
                continue
            recent = (now - last_access) <= self.interval
            action = "promote" if recent else "prewarm"
            if action == "prewarm":
                if prewarms_left <= 0:
                    skip(key, "prewarm-limit")
                    continue
                prewarms_left -= 1
            decisions.append({
                "key": key,
                "action": action,
                "from": src,
                "to": dst,
                "size": meta.size,
                "heat": round(heat, 6),
                "score": round(score, 4),
                "reason": "hot" if action == "promote" else "predicted-hot",
            })
            planned_keys.add(key)
            projected[dst] += meta.size
            moves_left -= 1

        # Demotions: copies in every tier that has a slower sibling,
        # coldest first.  Sketch membership is deliberately ignored here
        # — Space-Saving counts never decay, so a key hot last epoch but
        # idle now must still be evictable; the EWMA-driven score
        # protects currently-hot keys.
        self.index.sync(order, now)
        with closing(self.index.walk(order[:-1], now)) as coldest:
            for heat, last_access, key, src, meta in coldest:
                if moves_left <= 0:
                    break
                considered += 1
                if key in planned_keys:
                    continue
                if now - self._last_moved.get(key, -1e18) < self.hysteresis:
                    skip(key, "hysteresis")
                    continue
                dst = self._demotion_target(meta, src, order, rank)
                if dst is None:
                    skip(key, "no-slower-tier")
                    continue
                needs_copy = not meta.holds(dst)
                pressure = (
                    self._pressure(projected, dst, meta.size)
                    if needs_copy else 0.0
                )
                score = self.score_move(heat, src, dst, meta.size, pressure)
                if score < self.min_score:
                    # Candidates are coldest-first: a warmer key demoting
                    # across the same tier pair scores strictly lower, so
                    # record one representative skip and stop scanning.
                    skip(key, "score")
                    break
                decisions.append({
                    "key": key,
                    "action": "demote",
                    "from": src,
                    "to": dst,
                    "size": meta.size,
                    "heat": round(heat, 6),
                    "score": round(score, 4),
                    "reason": "cold",
                })
                planned_keys.add(key)
                projected[src] -= meta.size
                if needs_copy:
                    projected[dst] += meta.size
                moves_left -= 1

        if blocked:
            self._refine(
                blocked, decisions, skipped, planned_keys,
                projected, order, rank, now,
            )

        return {
            "enabled": True,
            "time": round(now, 6),
            "objective": self.objective,
            "weights": {
                "latency": self.weights()[0], "cost": self.weights()[1],
            },
            "interval": self.interval,
            "hysteresis": self.hysteresis,
            "tier_order": order,
            "considered": considered,
            "decisions": decisions,
            "skipped": skipped,
        }

    @staticmethod
    def _demotion_target(meta, src, order, rank) -> Optional[str]:
        """Where reads land after dropping ``src``: the fastest slower
        copy if one exists, else the next slower tier to copy into."""
        slower_copies = [t for t in meta.copies() if t in rank and rank[t] > rank[src]]
        if slower_copies:
            return min(slower_copies, key=lambda t: rank[t])
        for name in order[rank[src] + 1:]:
            return name
        return None

    def _refine(
        self, blocked, decisions, skipped, planned_keys,
        projected, order, rank, now,
    ) -> None:
        """Bounded local search: pair capacity-blocked promotions with
        demoting the coldest resident of the target tier when the swap's
        combined score clears the threshold."""
        budget = DEFAULT_REFINE_BUDGET
        for promo in blocked[:budget]:
            dst = promo["dst"]
            tier = self.instance.tiers.get(dst)
            with closing(self.index.walk((dst,), now)) as coldest:
                victim = next(
                    (
                        c for c in coldest
                        if c[2] not in planned_keys and c[2] != promo["key"]
                    ),
                    None,
                )
            if victim is None:
                continue
            v_heat, _, v_key, v_src, v_meta = victim
            v_dst = self._demotion_target(v_meta, v_src, order, rank)
            if v_dst is None:
                continue
            freed = projected[dst] - v_meta.size
            if tier.capacity is not None and freed + promo["size"] > tier.capacity:
                continue  # one eviction is not enough; stay greedy
            demote_score = self.score_move(v_heat, v_src, v_dst, v_meta.size)
            promote_score = self.score_move(
                promo["heat"], promo["src"], dst, promo["size"]
            )
            if promote_score + demote_score < self.min_score:
                continue
            skipped[:] = [
                s for s in skipped
                if not (s["key"] == promo["key"] and s["reason"] == "capacity")
            ]
            decisions.append({
                "key": v_key,
                "action": "demote",
                "from": v_src,
                "to": v_dst,
                "size": v_meta.size,
                "heat": round(v_heat, 6),
                "score": round(demote_score, 4),
                "reason": "refine-swap",
            })
            decisions.append({
                "key": promo["key"],
                "action": "promote",
                "from": promo["src"],
                "to": dst,
                "size": promo["size"],
                "heat": round(promo["heat"], 6),
                "score": round(promote_score, 4),
                "reason": "refine-swap",
            })
            planned_keys.add(v_key)
            planned_keys.add(promo["key"])
            projected[dst] = freed + promo["size"]
            if not v_meta.holds(v_dst):
                projected[v_dst] += v_meta.size

    # -- execution -----------------------------------------------------------

    def run_cycle(
        self, ctx: RequestContext, origin: str = "manual"
    ) -> Dict[str, object]:
        """Plan, then execute each decision through the journaled data
        path; returns the plan annotated with per-decision outcomes."""
        now = self.clock.now()
        plan = self.plan(now=now)
        applied = 0
        bytes_moved = 0
        errors = 0
        tiers_touched = set()
        for decision in plan["decisions"]:
            try:
                self._apply(decision, ctx)
            except Exception as exc:  # noqa: BLE001 - keep the cycle going
                decision["applied"] = False
                decision["error"] = f"{type(exc).__name__}: {exc}"
                errors += 1
                self._skip_cells["error"].inc()
                continue
            decision["applied"] = True
            self._last_moved[decision["key"]] = now
            applied += 1
            bytes_moved += decision["size"]
            tiers_touched.add(decision["from"])
            tiers_touched.add(decision["to"])
            self._move_cells[decision["action"]].inc()
            self._bytes_cell.inc(decision["size"])
        for entry in plan["skipped"]:
            self._skip_cells[entry["reason"]].inc()
        self._cycle_cell.inc()
        self._m_plan_size.set(len(plan["decisions"]), instance=self.owner)
        self._last_cycle = {
            "time": plan["time"],
            "origin": origin,
            "decisions": len(plan["decisions"]),
            "applied": applied,
            "errors": errors,
            "bytes_moved": bytes_moved,
            "skipped": len(plan["skipped"]),
        }
        self._audit(plan, origin, applied, bytes_moved, tiers_touched, ctx)
        return plan

    def _apply(self, decision: Dict[str, object], ctx: RequestContext) -> None:
        key = decision["key"]
        src = decision["from"]
        dst = decision["to"]
        if decision["action"] in ("promote", "prewarm"):
            self.instance.relocate(key, (dst,), ctx, prefer=src)
            return
        # demote: drop the fast copy, first materializing a slower one
        # unless the object already lists one there (ROADMAP item 1).
        held = self.instance.meta(key).holds(dst)
        self.instance.relocate(
            key, () if held else (dst,), ctx, prefer=src, drop_from=(src,)
        )

    def _audit(
        self, plan, origin, applied, bytes_moved, tiers_touched, ctx
    ) -> None:
        from repro.obs.audit import AuditRecord

        actions: Dict[str, int] = {}
        for decision in plan["decisions"]:
            if decision.get("applied"):
                actions[decision["action"]] = (
                    actions.get(decision["action"], 0) + 1
                )
        self.instance.obs.audit.append(AuditRecord(
            time=plan["time"],
            category="placement",
            name=f"adaptive-{self.objective}",
            origin=origin,
            foreground=False,
            responses=applied,
            tiers_touched=tuple(sorted(t for t in tiers_touched if t)),
            objects_moved=applied,
            duration=round(ctx.elapsed, 9),
            detail={
                "objective": self.objective,
                "decisions": len(plan["decisions"]),
                "applied": applied,
                "actions": {a: n for a, n in sorted(actions.items())},
                "bytes_moved": bytes_moved,
                "skipped": len(plan["skipped"]),
            },
        ))

    # -- introspection -------------------------------------------------------

    def status(self) -> Dict[str, object]:
        """JSON-able engine state for health()/RPC/CLI."""
        return {
            "enabled": True,
            "running": self.running,
            "objective": self.objective,
            "weights": {
                "latency": self.weights()[0], "cost": self.weights()[1],
            },
            "interval": self.interval,
            "hysteresis": self.hysteresis,
            "min_score": self.min_score,
            "max_moves": self.max_moves,
            "prewarm_limit": self.prewarm_limit,
            "high_watermark": self.high_watermark,
            "cycles": self.cycles,
            "moves": self.moves,
            "bytes_moved": self.bytes_moved,
            "last_cycle": self._last_cycle,
        }
