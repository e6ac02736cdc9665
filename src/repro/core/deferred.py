"""One deferred-write queue: park a write for a sick target, replay it
when the target is back.

The instance's resilience layer parks writes owed to a sick *tier*
(``ResilienceLayer.repair_queue``); the shard cluster parks writes owed
to a down *shard* (``ClusterManager.hints``, hinted handoff).  Both are
this queue, drained by this one loop; each layer supplies only what
differs between them: its ``ready(target)`` predicate and its
``replay(entry)`` callback.  The rules, with their reasons, are
docs/RESILIENCE.md's "One deferred-write queue":

1. one slot per ``(target, key)``: the newest entry wins and keeps its
   place in line;
2. FIFO per target;
3. a drain stops at a target's first refusal: the refused entry and
   that target's later entries go back, in order;
4. no attempt cap: an entry leaves when it lands, when its source is
   gone (``dropped``), or when its target leaves (``discard``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: What ``replay`` made of one entry, and the keys of ``drain``'s counts.
REPLAYED, DROPPED, REQUEUED = "replayed", "dropped", "requeued"


@dataclass
class Deferred:
    """One write owed to ``target``.  ``holder`` is where the bytes wait
    meanwhile (``""`` at tier level, where the instance's row knows its
    copies); ``op`` is ``put`` or ``delete``."""

    key: str
    target: str
    holder: str = ""
    op: str = "put"


class DeferredQueue:
    """Deferred writes, one slot per ``(target, key)``, FIFO."""

    def __init__(self):
        self._slots: "OrderedDict[Tuple[str, str], Deferred]" = OrderedDict()
        self.recorded = 0   #: every add
        self.enqueued = 0   #: adds that opened a slot
        self.replayed = 0
        self.dropped = 0    #: source gone, or target discarded

    def add(self, entry: Deferred) -> bool:
        """Park ``entry``; True when it opened a new slot.  A newer entry
        for a parked ``(target, key)`` replaces it in place."""
        slot = (entry.target, entry.key)
        opened = slot not in self._slots
        self._slots[slot] = entry
        self.recorded += 1
        self.enqueued += opened
        return opened

    def pending(self, target: Optional[str] = None) -> int:
        if not self._slots or target is None:
            return len(self._slots)
        return sum(1 for slot in self._slots if slot[0] == target)

    def targets(self) -> List[str]:
        return sorted({slot[0] for slot in self._slots})

    def for_key(self, key: str) -> List[Deferred]:
        """Every entry parked for ``key``, in queue order."""
        return [e for e in self._slots.values() if e.key == key]

    def discard(self, target: str, key: Optional[str] = None) -> int:
        """Forget ``target``'s entry for ``key`` (every entry when
        ``key`` is None): the target left.  Returns how many went."""
        stale = [
            slot for slot in self._slots
            if slot[0] == target and key in (None, slot[1])
        ]
        for slot in stale:
            del self._slots[slot]
        self.dropped += len(stale)
        return len(stale)

    def drain(
        self,
        target: Optional[str],
        ready: Callable[[str], bool],
        replay: Callable[[Deferred], str],
    ) -> Dict[str, int]:
        """Replay the entries for ``target`` (every target when None),
        FIFO.  An entry whose target is not ``ready``, or has refused
        once in this drain, is requeued without an attempt.  Each entry
        leaves the queue only while its own replay runs, so ``for_key``
        sees every other one; a requeued entry goes back at once,
        behind the rest, unless a newer write took its slot meanwhile."""
        counts = {REPLAYED: 0, DROPPED: 0, REQUEUED: 0}
        stalled = set()
        for slot in [s for s in self._slots if target in (None, s[0])]:
            entry = self._slots.pop(slot, None)
            if entry is None:
                continue  # discarded by an earlier replay
            if entry.target in stalled or not ready(entry.target):
                outcome = REQUEUED
            else:
                outcome = replay(entry)
            counts[outcome] += 1
            if outcome == REQUEUED:
                stalled.add(entry.target)
                self._slots.setdefault(slot, entry)
            elif outcome == REPLAYED:
                self.replayed += 1
            else:
                self.dropped += 1
        return counts

    def __iter__(self) -> Iterator[Deferred]:
        return iter(list(self._slots.values()))

    def __len__(self) -> int:
        return len(self._slots)
