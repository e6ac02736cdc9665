"""The scoped profiler: where wall-clock and virtual time go in a run.

The simulation has two timelines, and a figure row's run spans both:

* **Wall-clock time** — what the *simulator itself* burns executing the
  phases of a figure row.  :class:`Profiler` attributes it with scoped
  ``perf_counter`` sections (``build`` / ``load`` / ``drive``) that nest
  into a hierarchical tree, plus an optional :func:`cprofile_capture`
  wrapper for function-level detail.  Per-op wall cost, layer by layer,
  is ``benchmarks/perf``'s job; no op opens a section.
* **Virtual time** — what the *simulated stack* charged to requests,
  per tier/component.  :func:`virtual_breakdown` derives it from two
  metrics-registry snapshots (complete coverage, zero per-request
  cost).

Recording a section never touches a
:class:`~repro.simcloud.resources.RequestContext` — profiling cannot
shift a simulated latency (the Figure 18 "observer
effect" rule applies to wall instrumentation too).
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Optional

from repro.obs.export import parse_labels

__all__ = [
    "Profiler",
    "ProfileNode",
    "NULL_PROFILER",
    "cprofile_capture",
    "virtual_breakdown",
    "render_profile",
]


class ProfileNode:
    """One named region in the aggregated wall-time tree."""

    __slots__ = ("name", "seconds", "count", "children")

    def __init__(self, name: str):
        self.name = name
        self.seconds = 0.0
        self.count = 0
        self.children: Dict[str, "ProfileNode"] = {}

    def child(self, name: str) -> "ProfileNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = ProfileNode(name)
        return node

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "name": self.name,
            "seconds": self.seconds,
            "count": self.count,
        }
        if self.children:
            out["children"] = [
                c.to_dict()
                for c in sorted(
                    self.children.values(), key=lambda n: (-n.seconds, n.name)
                )
            ]
        return out


class Profiler:
    """Aggregating scoped wall-clock profiler.

    ``with profiler.section("load"):`` times a region; nested sections
    build a tree keyed by section path, so re-entering the same path
    accumulates into one node.  One thread, one stack: a figure row's
    trial is the only owner.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.root = ProfileNode("total")
        self._stack: List[ProfileNode] = [self.root]

    @contextmanager
    def section(self, name: str):
        """Time the ``with`` body as a region under the current one."""
        if not self.enabled:
            yield
            return
        node = self._stack[-1].child(name)
        self._stack.append(node)
        start = perf_counter()
        try:
            yield
        finally:
            node.seconds += perf_counter() - start
            node.count += 1
            self._stack.pop()

    def wall_report(self) -> Dict[str, object]:
        """The aggregated tree: top-level sections and their totals."""
        return {
            "total_seconds": sum(c.seconds for c in self.root.children.values()),
            "sections": self.root.to_dict().get("children", []),
        }


#: A permanently-disabled profiler for call sites that take one
#: optionally (telemetry scenarios run un-profiled by default).
NULL_PROFILER = Profiler(enabled=False)


def cprofile_capture(limit: int = 20):
    """Context manager capturing a ``cProfile`` run of its body.

    Yields a dict that gains a ``functions`` list (top ``limit`` by
    cumulative time) on exit — or an ``unavailable`` note when the
    interpreter ships without ``cProfile``/``pstats``.
    """
    return _CProfileCapture(limit)


class _CProfileCapture:
    def __init__(self, limit: int):
        self.limit = limit
        self.result: Dict[str, object] = {}

    def __enter__(self) -> Dict[str, object]:
        try:
            import cProfile
        except ImportError:  # pragma: no cover - stdlib always has it
            self._profile = None
            self.result["unavailable"] = "cProfile not importable"
            return self.result
        self._profile = cProfile.Profile()
        self._profile.enable()
        return self.result

    def __exit__(self, *exc) -> None:
        if self._profile is None:  # pragma: no cover
            return
        self._profile.disable()
        import pstats

        stats = pstats.Stats(self._profile)
        rows = []
        for key, value in stats.stats.items():  # type: ignore[attr-defined]
            filename, line, func = key
            cc, nc, tottime, cumtime, _callers = value
            rows.append(
                {
                    "function": f"{filename}:{line}({func})",
                    "calls": nc,
                    "tottime": round(tottime, 6),
                    "cumtime": round(cumtime, 6),
                }
            )
        rows.sort(key=lambda r: (-r["cumtime"], r["function"]))
        self.result["functions"] = rows[: self.limit]


# -- virtual-time attribution -----------------------------------------------


def _samples(snapshot: Optional[Dict[str, object]], name: str) -> Dict[str, object]:
    if not snapshot:
        return {}
    family = snapshot.get("metrics", {}).get(name)
    return family["samples"] if family else {}


def virtual_breakdown(
    before: Optional[Dict[str, object]], after: Dict[str, object]
) -> Dict[str, object]:
    """Virtual seconds charged between two registry snapshots.

    Returns per-service tier-op seconds (queueing included), per-op
    client request latency (sum/count/mean from the request histogram),
    and per-rule policy seconds split foreground/background — the
    "where did the simulated time go" half of a profile.
    """
    services: Dict[str, float] = {}
    prior = _samples(before, "tiera_tier_op_seconds")
    for key, sample in _samples(after, "tiera_tier_op_seconds").items():
        delta = sample["sum"] - prior.get(key, {"sum": 0.0})["sum"]
        if delta:
            service = parse_labels(key).get("service", "?")
            services[service] = services.get(service, 0.0) + delta

    requests: Dict[str, Dict[str, float]] = {}
    prior = _samples(before, "tiera_request_seconds")
    for key, sample in _samples(after, "tiera_request_seconds").items():
        prev = prior.get(key, {"sum": 0.0, "count": 0})
        count = sample["count"] - prev["count"]
        seconds = sample["sum"] - prev["sum"]
        if count:
            op = parse_labels(key).get("op", key or "?")
            requests[op] = {
                "count": count,
                "seconds": seconds,
                "mean": seconds / count,
            }

    rules: Dict[str, float] = {}
    prior = _samples(before, "tiera_rule_seconds_total")
    for key, value in _samples(after, "tiera_rule_seconds_total").items():
        delta = value - prior.get(key, 0.0)
        if delta:
            labels = parse_labels(key)
            name = f"{labels.get('rule', '?')} ({labels.get('mode', '?')})"
            rules[name] = rules.get(name, 0.0) + delta

    return {
        "services": services,
        "requests": requests,
        "rules": rules,
        "total_service_seconds": sum(services.values()),
        "total_request_seconds": sum(
            r["seconds"] for r in requests.values()
        ),
    }


# -- rendering ---------------------------------------------------------------


def _render_wall_node(node: Dict[str, object], total: float, depth: int,
                      lines: List[str]) -> None:
    share = (node["seconds"] / total) if total > 0 else 0.0
    bar = "#" * max(1, int(share * 30)) if node["seconds"] else ""
    lines.append(
        f"  {'  ' * depth}{node['name']:<{30 - 2 * depth}} "
        f"{node['seconds'] * 1000:>10.1f} ms  {share:>6.1%}  "
        f"x{node['count']:<6} {bar}"
    )
    for child in node.get("children", []):
        _render_wall_node(child, total, depth + 1, lines)


def render_profile(report: Dict[str, object]) -> str:
    """Flamegraph-style text rendering of a profile report dict: its
    wall-clock tree, virtual-time attribution and cProfile rows, each
    block only when the report has it."""
    blocks: List[List[str]] = []
    wall = report.get("wall")
    if wall:
        total = wall.get("total_seconds", 0.0)
        measured = report.get("measured_wall_seconds", total)
        lines = [
            "wall-clock (per code region)",
            "-" * 64,
            f"  measured {measured * 1000:.1f} ms, "
            f"sections cover {report.get('coverage', 1.0):.1%}",
        ]
        for node in wall.get("sections", []):
            _render_wall_node(node, measured or total, 0, lines)
        blocks.append(lines)

    virtual = report.get("virtual") or {}
    if virtual:
        lines = ["virtual time (per simulated component)", "-" * 64]
        services = virtual.get("services", {})
        total_service = virtual.get("total_service_seconds", 0.0)
        for name in sorted(services, key=lambda n: (-services[n], n)):
            share = services[name] / total_service if total_service else 0.0
            lines.append(
                f"  service {name:<24} {services[name]:>10.3f} s  {share:>6.1%}"
            )
        for op, entry in sorted(virtual.get("requests", {}).items()):
            lines.append(
                f"  request {op:<24} {entry['seconds']:>10.3f} s  "
                f"({entry['count']} ops, mean {entry['mean'] * 1000:.2f} ms)"
            )
        for rule, seconds in sorted(virtual.get("rules", {}).items()):
            lines.append(f"  {rule:<32} {seconds:>10.3f} s")
        blocks.append(lines)

    functions = (report.get("cprofile") or {}).get("functions")
    if functions:
        lines = [
            "hottest functions (cProfile, by cumulative wall time)", "-" * 64,
        ]
        for row in functions:
            lines.append(
                f"  {row['cumtime']:>8.3f} s  {row['calls']:>8} calls  "
                f"{row['function']}"
            )
        blocks.append(lines)
    return "\n\n".join("\n".join(lines) for lines in blocks)
