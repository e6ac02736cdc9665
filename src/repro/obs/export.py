"""Exports: Prometheus text exposition, JSON snapshots, bench deltas.

Three consumers, three shapes:

* ``render_prometheus`` — the standard text exposition format, for the
  RPC ``stats`` verb and the CLI (``format=prometheus``);
* ``stats_snapshot`` — a JSON-able dict of every metric family plus the
  audit-log tail, for programmatic readers;
* ``parse_labels`` / ``counter_totals`` / ``counter_delta`` /
  ``tier_report`` / ``virtual_breakdown`` — turn two registry
  snapshots (before/after a benchmark window) into counter deltas, the
  per-tier hit counts and latency contributions the benchmark reports
  attach, and the virtual seconds per service and rule ``repro stats``
  prints.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.registry import Histogram, MetricsRegistry


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _fmt_labelset(labelset: Tuple[Tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{k}="{_escape(v)}"' for k, v in labelset]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (v0.0.4)."""
    registry.collect()
    lines: List[str] = []
    for metric in registry:
        lines.append(f"# HELP {metric.name} {_escape(metric.help)}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Histogram):
            for labelset in metric.label_sets():
                labels = dict(labelset)
                for bound, cumulative in metric.cumulative(**labels):
                    le = _fmt_labelset(labelset, f'le="{_fmt_value(bound)}"')
                    lines.append(f"{metric.name}_bucket{le} {cumulative}")
                suffix = _fmt_labelset(labelset)
                lines.append(
                    f"{metric.name}_sum{suffix} {repr(metric.sum(**labels))}"
                )
                lines.append(
                    f"{metric.name}_count{suffix} {metric.count(**labels)}"
                )
        else:
            for labelset in metric.label_sets():
                labels = dict(labelset)
                value = metric.value(**labels)
                lines.append(
                    f"{metric.name}{_fmt_labelset(labelset)} {_fmt_value(value)}"
                )
    return "\n".join(lines) + "\n" if lines else ""


def stats_snapshot(obs, audit_limit: int = 50) -> Dict[str, object]:
    """Everything a ``stats`` caller wants, as one JSON-able dict."""
    snap = obs.metrics.snapshot()
    snap["audit"] = {
        "appended": obs.audit.appended,
        "dropped": obs.audit.dropped,
        "errors": obs.audit.error_count(),
        "tail": obs.audit.to_dicts(limit=audit_limit),
    }
    snap["traces"] = {
        "enabled": obs.tracer.enabled,
        "retained": len(obs.tracer.recent()),
        "dropped": obs.tracer.dropped,
    }
    slo = getattr(obs, "slo", None)
    if slo is not None and slo.objectives:
        snap["slo"] = slo.summary()
    heat = getattr(obs, "heat", None)
    if heat is not None and heat.enabled:
        snap["heat"] = heat.summary()
    return snap


def parse_labels(rendered: str) -> Dict[str, str]:
    """Inverse of the snapshot's ``k=v,k=v`` sample keys.

    Honours the backslash escapes ``_render_labels`` emits, so label
    values containing ``,``, ``=``, or ``\\`` (hot-key gauges label by
    arbitrary object keys) round-trip instead of mis-splitting.
    """
    if not rendered:
        return {}
    out: Dict[str, str] = {}
    key: List[str] = []
    value: List[str] = []
    current = key
    escaped = False
    for ch in rendered:
        if escaped:
            current.append(ch)
            escaped = False
        elif ch == "\\":
            escaped = True
        elif ch == "=" and current is key:
            current = value
        elif ch == ",":
            out["".join(key)] = "".join(value)
            key, value = [], []
            current = key
        else:
            current.append(ch)
    out["".join(key)] = "".join(value)
    return out


def _samples(
    snapshot: Optional[Dict[str, object]], name: str
) -> Dict[str, object]:
    family = (snapshot or {}).get("metrics", {}).get(name)
    return family["samples"] if family else {}


def counter_totals(snapshot: Dict[str, object]) -> Dict[str, float]:
    """Each counter family's total over its samples, by family name."""
    return {
        name: float(sum(family.get("samples", {}).values()))
        for name, family in snapshot.get("metrics", {}).items()
        if family.get("type") == "counter"
    }


def counter_delta(
    prior: Dict[str, float], current: Dict[str, float]
) -> Dict[str, float]:
    """How far each counter in ``current`` rose from ``prior`` (keys
    missing there start at 0), zeros omitted."""
    return {
        key: value - prior.get(key, 0.0)
        for key, value in current.items()
        if value != prior.get(key, 0.0)
    }


def _family_delta(before, after, name: str) -> Dict[str, float]:
    """:func:`counter_delta` of counter family ``name``, by label key."""
    return counter_delta(_samples(before, name), _samples(after, name))


def _service_seconds(before, after) -> Dict[str, float]:
    """Simulated seconds each service spent in tier ops, queueing included."""
    seconds: Dict[str, float] = {}
    prior = _samples(before, "tiera_tier_op_seconds")
    for key, sample in _samples(after, "tiera_tier_op_seconds").items():
        delta = sample["sum"] - prior.get(key, {"sum": 0.0})["sum"]
        if delta:
            service = parse_labels(key).get("service", "?")
            seconds[service] = seconds.get(service, 0.0) + delta
    return seconds


def tier_report(
    before: Optional[Dict[str, object]], after: Dict[str, object]
) -> Dict[str, object]:
    """Per-tier/service activity between two registry snapshots.

    Returns ``ops`` (service → op → count), ``seconds`` (service →
    simulated seconds spent in its operations, queueing included),
    ``gets_served`` (tier → GETs it answered), and ``cache`` (page-cache
    hit/miss counts) — the breakdown a benchmark report attaches.
    """
    ops: Dict[str, Dict[str, float]] = {}
    for key, delta in _family_delta(before, after, "tiera_tier_ops_total").items():
        labels = parse_labels(key)
        service = labels.get("service", "?")
        ops.setdefault(service, {})[labels.get("op", "?")] = delta

    gets: Dict[str, float] = {}
    for key, delta in _family_delta(
        before, after, "tiera_gets_served_total"
    ).items():
        gets[parse_labels(key).get("tier", "?")] = delta

    cache: Dict[str, float] = {}
    for name, label in (
        ("tiera_page_cache_hits_total", "hits"),
        ("tiera_page_cache_misses_total", "misses"),
    ):
        total = sum(_family_delta(before, after, name).values())
        if total:
            cache[label] = total

    return {
        "ops": ops,
        "seconds": _service_seconds(before, after),
        "gets_served": gets,
        "cache": cache,
    }


def virtual_breakdown(
    before: Optional[Dict[str, object]], after: Dict[str, object]
) -> Dict[str, Dict[str, float]]:
    """Where the simulated time went between two registry snapshots:
    ``services`` (service → tier-op seconds, queueing included) and
    ``rules`` (``"<rule> (<mode>)"`` → policy seconds, foreground or
    background).  ``before=None`` is everything charged so far."""
    rules: Dict[str, float] = {}
    for key, delta in _family_delta(
        before, after, "tiera_rule_seconds_total"
    ).items():
        labels = parse_labels(key)
        name = f"{labels.get('rule', '?')} ({labels.get('mode', '?')})"
        rules[name] = rules.get(name, 0.0) + delta
    return {"services": _service_seconds(before, after), "rules": rules}
