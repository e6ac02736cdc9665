"""Per-request tracing: spans over the virtual timeline.

A trace is a tree of :class:`Span` objects rooted at one client
PUT/GET/DELETE.  Child spans record every tier operation (service, op,
bytes, simulated latency, hit/miss) and every policy rule that ran, with
foreground work (charged to the client's latency) distinguished from
background work (charged to a forked context) — so the Figure 18
question, "what did the control layer cost *this* request?", is
answered span by span rather than by aggregate subtraction.

Mechanics: the :class:`~repro.simcloud.resources.RequestContext` carries
the current span (``ctx.span``) and the request's root (``ctx.trace``).
Instrumented layers append children only when a span is present, so the
untraced hot path pays a single ``is None`` check.  All timestamps are
simulated-clock seconds; tracing spends no virtual time.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.obs.audit import newest
from repro.simcloud.clock import Clock

#: How many completed request traces the tracer retains.
DEFAULT_TRACE_CAPACITY = 256


class Span:
    """One timed piece of work inside a trace."""

    __slots__ = ("name", "kind", "start", "end", "foreground", "attrs",
                 "children", "error")

    def __init__(
        self,
        name: str,
        kind: str,
        start: float,
        foreground: bool = True,
        attrs: Optional[Dict[str, object]] = None,
    ):
        self.name = name
        self.kind = kind  # request | tier-op | rule | probe
        self.start = start
        self.end = start
        self.foreground = foreground
        self.attrs: Dict[str, object] = attrs if attrs is not None else {}
        self.children: List["Span"] = []
        self.error: Optional[str] = None

    def finish(self, at: float) -> "Span":
        self.end = at
        return self

    @property
    def duration(self) -> float:
        return self.end - self.start

    def child(
        self,
        name: str,
        kind: str,
        start: float,
        foreground: Optional[bool] = None,
        **attrs: object,
    ) -> "Span":
        span = Span(
            name,
            kind,
            start,
            foreground=self.foreground if foreground is None else foreground,
            attrs=attrs,
        )
        self.children.append(span)
        return span

    # -- queries used by reports/tests --------------------------------------

    def find(self, kind: str) -> List["Span"]:
        """All descendant spans of ``kind`` (depth-first order)."""
        found = []
        for span in self.children:
            if span.kind == kind:
                found.append(span)
            found.extend(span.find(kind))
        return found

    def foreground_rule_seconds(self) -> float:
        """Simulated time rules spent on the client path of this trace."""
        return sum(s.duration for s in self.find("rule") if s.foreground)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "foreground": self.foreground,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        if self.error is not None:
            out["error"] = self.error
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def __repr__(self) -> str:
        return (
            f"<Span {self.kind}:{self.name} {self.duration * 1000:.3f}ms "
            f"children={len(self.children)}>"
        )


class Tracer:
    """Opens request traces and retains the most recent completed ones.

    Disabled by default: tracing every request of a long benchmark would
    hold millions of span objects for no reader.  Enable it around the
    requests you care about (``tracer.enabled = True``, or per-call via
    the server's ``trace=True``), or leave it off and rely on the
    registry's aggregates.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        capacity: int = DEFAULT_TRACE_CAPACITY,
        enabled: bool = False,
    ):
        self.clock = clock
        self.enabled = enabled
        self.dropped = 0
        self._finished: Deque[Span] = deque(maxlen=capacity)

    def start_request(self, op: str, key: str, ctx, force: bool = False):
        """Open a root span on ``ctx`` if tracing is on (or forced).

        Returns the root span, or ``None`` when tracing is off.  Nested
        server calls (a response re-entering PUT) keep the outer root.
        """
        if ctx.span is not None:  # already inside a traced request
            return None
        if not (self.enabled or force):
            return None
        root = Span(f"{op} {key}", "request", ctx.time, foreground=True,
                    attrs={"op": op, "key": key})
        ctx.span = root
        ctx.trace = root
        return root

    def start_background(self, name: str, ctx, **attrs: object):
        """Open a background root span on ``ctx`` if tracing is on.

        For maintenance work that runs outside any client request —
        hinted-handoff drains, anti-entropy sweeps, read-repair — so
        those paths show up in trace trees alongside client requests,
        marked ``foreground=False`` throughout.  Returns the root span,
        or ``None`` when tracing is off (or a trace is already open).
        """
        if ctx.span is not None or not self.enabled:
            return None
        root = Span(name, "background", ctx.time, foreground=False,
                    attrs=dict(attrs))
        ctx.span = root
        ctx.trace = root
        return root

    def finish_request(self, root: Optional[Span], ctx,
                       error: Optional[str] = None) -> None:
        """Close a root opened by :meth:`start_request` (no-op on None)."""
        if root is None:
            return
        root.finish(ctx.time)
        if error is not None:
            root.error = error
        ctx.span = None
        ctx.trace = None
        if self._finished.maxlen and len(self._finished) == self._finished.maxlen:
            self.dropped += 1
        self._finished.append(root)

    def recent(self, n: Optional[int] = None) -> List[Span]:
        """The most recent completed traces, oldest first."""
        traces = list(self._finished)
        return traces if n is None else newest(traces, n)

    def last(self) -> Optional[Span]:
        return self._finished[-1] if self._finished else None

    def clear(self) -> None:
        self._finished.clear()
        self.dropped = 0
