"""The phase timer: where a figure row's wall-clock time goes.

Every :class:`~repro.bench.figures.Trial` owns one :class:`Profiler`
and wraps its phases in ``section("build" | "load" | "drive")``;
``repro bench`` prints the result beside each row's summary line.  A
nested section is keyed by its path (``drive/snapshot``), and re-entering
a path adds to it.  No op opens a section: per-op wall cost, layer by
layer, is ``benchmarks/perf``'s job, and virtual-time attribution is
:func:`repro.obs.export.virtual_breakdown`'s (``repro stats``).

A section never touches a
:class:`~repro.simcloud.resources.RequestContext`, so timing a phase
cannot shift a simulated latency (the Figure 18 "observer effect" rule
applies to wall instrumentation too).
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List

__all__ = ["Profiler"]


class Profiler:
    """Wall seconds and a count per section path, for one thread."""

    def __init__(self):
        #: ``{path: [seconds, count]}``, in first-entry order
        self.sections: Dict[str, List[float]] = {}
        self._path: List[str] = []

    @contextmanager
    def section(self, name: str):
        """Time the ``with`` body under the current section's path."""
        self._path.append(name)
        entry = self.sections.setdefault("/".join(self._path), [0.0, 0])
        start = perf_counter()
        try:
            yield
        finally:
            entry[0] += perf_counter() - start
            entry[1] += 1
            self._path.pop()

    def report(self, measured: float) -> str:
        """Each path's milliseconds and count, then the share of
        ``measured`` wall seconds the top-level sections cover."""
        phases = ", ".join(
            f"{path} {seconds * 1000:.1f} ms x{count}"
            for path, (seconds, count) in self.sections.items()
        )
        covered = sum(
            seconds for path, (seconds, _) in self.sections.items()
            if "/" not in path
        )
        share = covered / measured if measured > 0 else 0.0
        return f"phases: {phases}; {share:.1%} of {measured * 1000:.1f} ms"
