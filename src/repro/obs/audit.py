"""The policy audit log: what the control layer did, and why.

Every rule firing — timer, threshold, or action event, foreground or
background — appends one structured :class:`AuditRecord`; so do monitor
probes and background failures that used to vanish into
``ControlLayer.background_errors``.  The log is a bounded ring: old
records fall off, the drop count is kept, and nothing here allocates
unboundedly during a week-long simulated run.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

#: How many audit records the ring retains by default.
DEFAULT_AUDIT_CAPACITY = 2048


@dataclass
class AuditRecord:
    """One control-layer happening, on the simulated clock."""

    time: float            #: simulated time the happening started
    category: str          #: rule | background-error | probe | reconfigure | placement
    name: str              #: rule name / probe name / error source
    origin: str = ""       #: what fired it: action:get, timer, threshold, …
    foreground: bool = True  #: did it run on a client's latency path?
    responses: int = 0     #: number of responses executed
    tiers_touched: Tuple[str, ...] = ()  #: tiers whose data path was hit
    objects_moved: int = 0  #: tier data operations performed
    duration: float = 0.0  #: simulated seconds the work charged
    error: Optional[str] = None  #: error message, if the work failed
    detail: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        out = {
            "time": self.time,
            "category": self.category,
            "name": self.name,
            "origin": self.origin,
            "foreground": self.foreground,
            "responses": self.responses,
            "tiers_touched": list(self.tiers_touched),
            "objects_moved": self.objects_moved,
            "duration": self.duration,
        }
        if self.error is not None:
            out["error"] = self.error
        if self.detail:
            out["detail"] = dict(self.detail)
        return out


def newest(items: list, n: int) -> list:
    """The last ``n`` of ``items`` — none for 0; a negative ``n`` is a
    caller's mistake (``ValueError``), not an index from the front."""
    if n < 0:
        raise ValueError(f"limit must be at least 0, got {n}")
    return items[max(0, len(items) - n):]


class AuditLog:
    """Bounded append-only ring of :class:`AuditRecord`."""

    def __init__(self, capacity: int = DEFAULT_AUDIT_CAPACITY):
        if capacity < 1:
            raise ValueError("audit log capacity must be positive")
        self._records: Deque[AuditRecord] = deque(maxlen=capacity)
        self.appended = 0
        self.dropped = 0

    def append(self, record: AuditRecord) -> AuditRecord:
        if len(self._records) == self._records.maxlen:
            self.dropped += 1
        self._records.append(record)
        self.appended += 1
        return record

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def records(
        self,
        category: Optional[str] = None,
        name: Optional[str] = None,
        errors_only: bool = False,
        limit: Optional[int] = None,
    ) -> List[AuditRecord]:
        """Filtered view, oldest first; ``limit`` keeps the newest N."""
        out = [
            r for r in self._records
            if (category is None or r.category == category)
            and (name is None or r.name == name)
            and (not errors_only or r.error is not None)
        ]
        return out if limit is None else newest(out, limit)

    def tail(self, n: int = 20) -> List[AuditRecord]:
        return self.records(limit=n)

    def error_count(self) -> int:
        return sum(1 for r in self._records if r.error is not None)

    def to_dicts(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        return [r.to_dict() for r in self.records(limit=limit)]

    def clear(self) -> None:
        self._records.clear()
        self.appended = 0
        self.dropped = 0
