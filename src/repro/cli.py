"""Command-line interface: ``python -m repro <command>``.

Commands mirror how the paper's prototype is operated:

* ``validate <spec-file>`` — parse and compile an instance
  specification, report its tiers and rules (the compile check the
  prototype lacked).
* ``serve <spec-file> [--port P] [--arg name=value ...]`` — compile the
  spec against a wall-clock simulated cloud and serve it over the RPC
  protocol, like the prototype's Thrift server on an EC2 instance.
* ``cost <spec-file>`` — price the specified configuration per month.
* ``stats --port P [--host H] [--format json|prometheus|summary]`` —
  query a running server's observability snapshot over RPC (the STATS
  verb): metric registry, audit-log tail, health summary (per shard,
  when the server is a shard router).
* ``chaos [--scenario S] [--seed N] [--baseline] ...`` — run one
  deterministic fault-injection scenario against a canned deployment
  and print the JSON report.  Same seed ⇒ byte-identical output: the
  CI chaos job diffs two runs of this command.
* ``fsck --port P [--repair]`` — run the metadata/tier cross-check
  scrub on a running server over RPC; ``--repair`` fixes findings.
* ``snapshot --port P --out FILE`` / ``restore --port P FILE`` —
  barman-style full backup and restore of a running instance's state.
* ``backup <snapshot|restore|prune|verify|list> --port P ...`` — the
  backup lifecycle against a server started with ``--backup-root``:
  incremental snapshots, point-in-time restore (``--to-seq`` /
  ``--to-time``), retention pruning, and recovery verification.
* ``heat --port P [--enable] [--format text|json]`` — the workload
  heat tracker's snapshot over RPC: hot-key bars from the Space-Saving
  sketch, per-tier occupancy gauges, and the occupancy timeline.
  ``--enable`` turns the tracker on first (``--top-k``, ``--hot-min``,
  ``--window``, ``--sample-interval``, ``--max-objects`` configure it).
* ``placement <status|plan|run> --port P [--enable] [--objective O]
  [--interval N] [--format text|json]`` — the adaptive placement
  engine over RPC: engine status, the scored promote/demote/pre-warm
  plan without moving data, or one executed cycle.  ``--enable``
  configures it on first through the management API.
* ``crashsweep [--deployment D] [--seed N] ...`` — offline: crash a
  scripted workload at every registered crash point, reopen, verify
  recovery invariants, print the JSON report (byte-identical across
  same-seed runs; the CI crash-matrix job diffs two runs).
* ``profile [--scenario S] [--cprofile] [--format text|json]`` — run a
  row of the paper-figures table at smoke scale under the scoped
  profiler and print its build/load/drive wall-clock tree and
  virtual-time breakdown.  ``profile --port P`` instead attributes a
  running server's virtual time from its ``stats`` snapshot (the two
  modes' flags are exclusive).  Per-op wall cost is measured by
  ``benchmarks/perf``, not here.
* ``bench [--name S ...] [--out DIR]`` — run the figure rows at smoke
  scale and write one ``BENCH_<name>.json`` record each.
* ``benchdiff --current DIR [--baseline DIR] [--tolerance F]`` —
  compare fresh records against the committed baselines; exits nonzero
  when a baseline has no fresh record, a shape predicate fails, or a
  same-seed number drifts beyond the tolerance (the CI figures job's
  gate).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from repro.core import features
from repro.core.errors import FEATURE_DISABLED, TieraError
from repro.core.server import TieraServer
from repro.obs.export import parse_labels
from repro.simcloud.clock import WallClock
from repro.simcloud.cluster import Cluster
from repro.spec import SpecSyntaxError, compile_spec, parse
from repro.tiers.registry import TierRegistry


def _parse_args_option(pairs: List[str]) -> Dict[str, object]:
    """--arg t=30 --arg cap=40960 → {"t": 30.0, "cap": 40960.0}."""
    out: Dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"bad --arg {pair!r}: expected name=value")
        name, _, raw = pair.partition("=")
        try:
            out[name] = float(raw) if "." in raw else int(raw)
        except ValueError:
            out[name] = raw
    return out


#: What reading and compiling a spec file can raise.
_SPEC_ERRORS = (OSError, SpecSyntaxError, TieraError, ValueError, KeyError)


def _read_spec(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def _compile_file(path: str, args: Dict[str, object], wall: bool = False):
    source = _read_spec(path)
    clock = WallClock() if wall else None
    cluster = Cluster(clock=clock)
    registry = TierRegistry(cluster)
    instance = compile_spec(source, registry, args=args)
    return cluster, instance


def cmd_validate(options) -> int:
    try:
        spec = parse(_read_spec(options.spec))
    except SpecSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 1
    except _SPEC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"instance {spec.name}")
    if spec.params:
        print("  parameters:", ", ".join(
            f"{p.type_name or ''} {p.name}".strip() for p in spec.params
        ))
    for tier in spec.tiers:
        size = tier.size if tier.size is not None else "unbounded"
        print(f"  tier {tier.tier_name}: {tier.product}, size={size}")
    print(f"  events: {len(spec.events)}")
    if all(p.default is not None for p in spec.params):
        # A spec whose every parameter has a default compile-checks too.
        try:
            _compile_file(options.spec, {})
        except Exception as exc:  # pragma: no cover - message path
            print(f"compile error: {exc}", file=sys.stderr)
            return 1
        print("  compiles cleanly")
    return 0


def cmd_cost(options) -> int:
    args = _parse_args_option(options.arg)
    try:
        _, instance = _compile_file(options.spec, args)
    except _SPEC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{instance.name}: ${instance.monthly_cost():.2f}/month "
          f"(${instance.cost_per_gb_month():.2f}/GB-month)")
    for tier in instance.tiers:
        cap = tier.capacity if tier.capacity is not None else 0
        marginal = 0.0 if tier.colocated else (
            instance.price_book.monthly_storage_cost(tier.kind, cap)
        )
        print(f"  {tier.name} ({tier.kind}): ${marginal:.2f}")
    return 0


def cmd_serve(options) -> int:
    from repro.rpc import TieraRpcServer

    args = _parse_args_option(options.arg)
    try:
        cluster, instance = _compile_file(options.spec, args, wall=True)
    except _SPEC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    tiera = TieraServer(instance)
    if options.backup_root:
        attached = tiera.configure("backup", root=options.backup_root)
        if not attached.ok:
            return _refused("backup store", attached)
    server = TieraRpcServer(tiera, host=options.host, port=options.port).start()
    print(f"{instance.name} serving on {server.host}:{server.port} "
          f"(tiers: {', '.join(instance.tiers.names())})")
    print("press Ctrl-C to stop")
    try:
        import time

        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        instance.shutdown()
        cluster.clock.shutdown()
        print("stopped")
    return 0


def cmd_stats(options) -> int:
    client = _connect(options)
    if client is None:
        return 1
    with client:
        if options.format == "prometheus":
            print(client.stats(format="prometheus"), end="")
            return 0
        snapshot = client.stats()
        if options.format == "json":
            print(json.dumps(snapshot, indent=2, sort_keys=True))
            return 0
        # summary: the headline numbers a human wants at a glance.
        health = client.health()
        if "shards" in health:
            _print_router_summary(health, snapshot)
            return 0
        print(f"instance {health['instance']} — status {health['status']} "
              f"at t={health['time']:.1f}s, {health['objects']} objects")
        for tier in health["tiers"]:
            cap = "∞" if tier["capacity"] is None else str(tier["capacity"])
            state = "up" if tier["available"] else "DOWN"
            extra = ""
            if tier.get("breaker") is not None:
                extra = f", breaker {tier['breaker']}"
                if tier.get("pending_repairs"):
                    extra += f", {tier['pending_repairs']} repairs queued"
            print(f"  tier {tier['name']} ({tier['kind']}): "
                  f"{tier['used']}/{cap} bytes, {state}{extra}")
        resilience = health.get("resilience")
        if resilience:
            print(f"  resilience: {resilience['retries']} retries, "
                  f"{resilience['degraded_writes']} degraded writes, "
                  f"{resilience['replays']} repairs replayed "
                  f"({resilience['repair_queue']['pending']} pending)")
        fired = health["rules_fired"]
        if fired:
            print("  rules fired:", ", ".join(
                f"{name}×{count}" for name, count in sorted(fired.items())
            ))
        _print_latency_summary(snapshot)
        slo = snapshot.get("slo") or health.get("slo")
        if slo:
            for objective in slo["objectives"]:
                flag = "ALERTING" if objective["alerting"] else (
                    "ok" if objective["compliant"] else "breaching"
                )
                print(f"  slo {objective['name']}: {flag} "
                      f"(current {objective['current']}, "
                      f"burn {objective['burn_rate']:.2f}x)")
        _print_heat_summary(health.get("heat"))
        _print_backup_summary(health.get("backup"))
        print(f"  background errors: {health['background_errors']} "
              f"(audit: {health['audit_errors']})")
        _print_audit_tail(snapshot)
    return 0


def _print_router_summary(health: Dict[str, object],
                          snapshot: Dict[str, object]) -> None:
    """The stats summary of a shard router: what its ``health()``
    carries — one line per shard (with its failure-detector state when
    the router replicates), the hint queue, the heat headline."""
    shards = health["shards"]
    objects = sum(shard["objects"] for shard in shards.values())
    print(f"router — status {health['status']} at t={health['time']:.1f}s, "
          f"{len(shards)} shards, {objects} objects")
    cluster = health.get("cluster")
    for name, shard in sorted(shards.items()):
        state = f", {cluster['shards'][name]}" if cluster else ""
        print(f"  shard {name}: {shard['status']}, "
              f"{shard['objects']} objects{state}")
    if cluster:
        print(f"  cluster: {cluster['replicas']} replicas, "
              f"{cluster['hints']['pending']} hints pending, "
              f"{cluster['journal_pending']} migration intents pending")
    _print_heat_summary(health.get("heat"))
    _print_audit_tail(snapshot)


def _print_audit_tail(snapshot: Dict[str, object]) -> None:
    for record in snapshot.get("audit", {}).get("tail", [])[-5:]:
        error = f" ERROR {record['error']}" if record.get("error") else ""
        print(f"  [{record['time']:.3f}] {record['category']} "
              f"{record['name']} ({record['origin']}){error}")


def _print_heat_summary(heat: Optional[Dict[str, object]]) -> None:
    """Workload-heat headline lines for the stats summary.

    The output shape is pinned by tests/core/test_cli.py — a ``heat:``
    line and, when the hot set is non-empty, a ``hot keys:`` line.
    """
    if not heat:
        return
    # A router's headline merges its shards' and carries no read mix.
    reads = (f" ({heat['read_fraction'] * 100:.0f}% reads)"
             if "read_fraction" in heat else "")
    print(f"  heat: {heat['accesses']} accesses{reads}, "
          f"{heat['tracked']} objects tracked, "
          f"skew {heat['skew']:.2f}, churn {heat['churn']:.2f}")
    hot = heat.get("hot_keys") or []
    if hot:
        print(f"  hot keys ({len(hot)}): {', '.join(hot)}")


def _print_backup_summary(backup: Optional[Dict[str, object]]) -> None:
    """Backup-chain status lines for the stats summary.

    The output shape is pinned by tests/core/test_cli.py — a ``backup:``
    chain line and a ``last verified restore:`` line.
    """
    if not backup:
        return
    last = backup.get("last_snapshot")
    wal = backup["wal"]
    chain = (f"{backup['snapshots']} snapshots "
             f"({backup['full']} full, {backup['incremental']} incremental)")
    tail = ""
    if last is not None:
        tail = (f", last {last['kind']} #{last['id']} "
                f"at t={last['created_at']:.1f}s")
    print(f"  backup: {chain}, wal {wal['records']} records "
          f"through seq {wal['last_seq']}{tail}")
    verified = backup.get("last_verified_restore")
    if verified is None:
        print("  last verified restore: never")
    else:
        flag = "ok" if verified.get("ok") else "FAILED"
        print(f"  last verified restore: t={verified['time']:.1f}s {flag} "
              f"(snapshot {verified.get('snapshot')}, "
              f"{verified.get('replayed', 0)} wal records replayed)")


def _print_latency_summary(snapshot: Dict[str, object]) -> None:
    """Per-op latency percentiles from the request histogram's samples.

    The output shape is pinned by tests/core/test_cli.py — one line per
    op family: ``latency <op>: p50 X ms, p95 Y ms, p99 Z ms (N ops)``.
    """
    family = snapshot.get("metrics", {}).get("tiera_request_seconds")
    if not family:
        return
    for key in sorted(family.get("samples", {})):
        sample = family["samples"][key]
        if not sample.get("count"):
            continue
        op = parse_labels(key).get("op", key or "all")
        print(f"  latency {op}: "
              f"p50 {sample['p50'] * 1000:.2f} ms, "
              f"p95 {sample['p95'] * 1000:.2f} ms, "
              f"p99 {sample['p99'] * 1000:.2f} ms "
              f"({sample['count']} ops)")


def cmd_profile(options) -> int:
    from repro.bench.telemetry import profile_scenario, render_profile
    from repro.obs.profiler import virtual_breakdown

    if options.port is not None:
        client = _connect(options)
        if client is None:
            return 1
        with client:
            # Everything the server's registry has charged so far.
            report = {"virtual": virtual_breakdown(
                None, client.stats(audit_limit=0)
            )}
    else:
        try:
            report = profile_scenario(
                options.scenario or "fig07", cprofile=options.cprofile
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    if options.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_profile(report))
    return 0


def cmd_bench(options) -> int:
    from repro.bench.figures import FIGURES
    from repro.bench.telemetry import run_scenario, write_record

    failed = []
    for name in options.name or list(FIGURES):
        try:
            record = run_scenario(name)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        path = write_record(record, options.out)
        failed += [f"{name}: {check}"
                   for check, ok in record["checks"].items() if not ok]
        print(f"{name}: {record['operations']} ops, "
              f"{record['virt_ops_per_s']:.1f} virtual ops/s, "
              f"p95 {record['latency']['p95'] * 1000:.2f} ms, "
              f"{len(record['checks'])} predicates -> {path}")
    for line in failed:
        print(f"predicate FAIL: {line}", file=sys.stderr)
    return 1 if failed else 0


def cmd_benchdiff(options) -> int:
    from repro.bench.telemetry import diff_directories

    try:
        ok, lines = diff_directories(
            options.baseline, options.current,
            tolerance=options.tolerance, names=options.name or None,
        )
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    if not ok:
        print("benchdiff: FAIL", file=sys.stderr)
        return 1
    print("benchdiff: ok")
    return 0


def cmd_chaos(options) -> int:
    from repro.bench.sim import CHAOS_DEPLOYMENTS, run_chaos
    from repro.simcloud.faults import SCENARIOS

    if options.list:
        for name in sorted(SCENARIOS):
            events = SCENARIOS[name].describe()["events"]
            shapes = ", ".join(e["profile"]["name"] for e in events)
            print(f"{name}: {shapes}")
        print("deployments:", ", ".join(CHAOS_DEPLOYMENTS))
        return 0
    try:
        report = run_chaos(
            scenario=options.scenario,
            deployment=options.deployment,
            seed=options.seed,
            resilient=not options.baseline,
            duration=options.duration,
            clients=options.clients,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _connect(options):
    from repro.rpc import TieraClient

    try:
        return TieraClient(options.host, options.port)
    except OSError as exc:
        print(f"cannot connect to {options.host}:{options.port}: {exc}",
              file=sys.stderr)
        return None


def _add_flags(parser, params) -> None:
    """argparse arguments for registry param specs: booleans are
    switches, ``repeat`` params repeatable flags, and ``bytes`` params
    a positional file whose content is the value."""
    for param in params:
        dest = param.flag or param.name
        flag = "--" + dest.replace("_", "-")
        if param.type is bytes:
            parser.add_argument(dest, help=param.help)
        elif param.type is bool:
            parser.add_argument(
                flag, dest=dest, action="store_true", help=param.help
            )
        elif param.repeat:
            parser.add_argument(
                flag, dest=dest, type=param.type, action="append",
                default=[], help=param.help,
            )
        else:
            parser.add_argument(
                flag, dest=dest, type=param.type, default=None,
                choices=param.choices, help=param.help,
            )


def _flag_params(options, params) -> Dict[str, object]:
    """The flag → param dict: only what the user actually set."""
    out: Dict[str, object] = {}
    for param in params:
        value = getattr(options, param.flag or param.name, None)
        if value is None or value is False or value == []:
            continue
        if param.type is bytes:
            with open(value, "rb") as handle:
                value = handle.read()
        out[param.name] = value
    return out


def _refused(what: str, result) -> int:
    print(f"{what} failed: [{result.error}] {result.error_message}",
          file=sys.stderr)
    return 1


def _manage(options, feature: str, action: str, enable: bool = False):
    """One management call over RPC: ``status`` is the feature's status,
    anything else one of its actions with the action's flags as params.
    With ``enable``, ``--enable`` and the feature's option flags go
    through ``configure`` first.  Returns ``None``, after a message,
    when the server is unreachable or refuses; a feature that is merely
    off comes back as its ``FEATURE_DISABLED`` envelope to render."""
    client = _connect(options)
    if client is None:
        return None
    with client:
        if enable:
            config = _flag_params(options, features.FEATURES[feature].options)
            if config and not options.enable:
                print("configuration flags need --enable", file=sys.stderr)
                return None
            if options.enable:
                configured = client.configure(feature, **config)
                if not configured.ok:
                    _refused(f"{feature} configure", configured)
                    return None
        if action == "status":
            result = client.feature_status(feature)
        else:
            spec = features.action_spec(feature, action)
            result = client.invoke(
                feature, action, **_flag_params(options, spec.params)
            )
    if not result.ok and result.error != FEATURE_DISABLED:
        _refused(f"{feature} {action}", result)
        return None
    return result


def _show(options, result, render) -> int:
    """Print a feature document as JSON or through its text renderer;
    exit status says whether the feature is on."""
    if result is None:
        return 1
    doc = result.state or {"enabled": False}
    if options.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        render(doc)
    return 0 if result.enabled else 1


def _per_shard(doc: Dict[str, object]) -> List[Dict[str, object]]:
    """The per-shard documents of a multi-shard router's answer (its
    ``{"shards": {name: doc}}`` nest); from anything else, the one."""
    return list(doc["shards"].values()) if set(doc) == {"shards"} else [doc]


def cmd_fsck(options) -> int:
    result = _manage(options, "durability", "fsck")
    if result is None:
        return 1
    print(json.dumps(result.state, indent=2, sort_keys=True))
    return 0 if all(d["clean"] for d in _per_shard(result.state)) else 1


def cmd_snapshot(options) -> int:
    result = _manage(options, "durability", "snapshot")
    if result is None:
        return 1
    archive = result.state["archive"]
    manifests = _per_shard(result.state["manifest"])
    with open(options.out, "wb") as handle:
        handle.write(archive)
    names = dict.fromkeys(m["instance"] for m in manifests)
    print(f"snapshot of {', '.join(names)}: "
          f"{sum(m['objects'] for m in manifests)} objects, "
          f"{len(archive)} bytes -> {options.out}")
    for manifest in manifests:
        print(f"  state digest {manifest['state_digest']}")
    return 0


def cmd_restore(options) -> int:
    result = _manage(options, "durability", "restore")
    if result is None:
        return 1
    print(json.dumps(result.state, indent=2, sort_keys=True))
    verified = all(d.get("verified") for d in _per_shard(result.state))
    return 0 if verified else 1


def cmd_backup(options) -> int:
    action = options.backup_action
    result = _manage(options, "backup", action)
    if result is None:
        return 1
    if not result.enabled:
        print("backups are not enabled on this server "
              "(serve with --backup-root)", file=sys.stderr)
        return 1
    if action == "list":
        for entry in result.state["snapshots"]:
            flags = "".join(
                flag for flag, on in (
                    (" immutable", entry.get("immutable")),
                    (" retired", entry.get("retired")),
                ) if on
            )
            parent = (f" parent #{entry['parent']}"
                      if entry.get("parent") is not None else "")
            print(f"#{entry['id']} {entry['kind']}: "
                  f"{entry['objects']} objects, {entry['bytes']} bytes, "
                  f"seq {entry['base_seq']}..{entry['upto_seq']}"
                  f"{parent}{flags}")
        return 0
    print(json.dumps(result.state, indent=2, sort_keys=True))
    if action == "verify":
        return 0 if result.state.get("ok") else 1
    return 0


def cmd_heat(options) -> int:
    from repro.obs.heat import render_report

    result = _manage(options, "heat", "summary", enable=True)
    return _show(options, result, lambda doc: print(render_report(doc)))


def cmd_placement(options) -> int:
    action = options.placement_action
    result = _manage(options, "placement", action, enable=True)
    return _show(
        options, result,
        _print_placement_status if action == "status"
        else _print_placement_plan,
    )


def _print_placement_status(status: Dict[str, object]) -> None:
    if not status.get("enabled"):
        print("placement: disabled (repro placement --enable, or "
              'configure("placement", ...))')
        return
    print(f"placement: objective={status['objective']} "
          f"interval={status['interval']}s "
          f"hysteresis={status['hysteresis']}s "
          f"{'running' if status['running'] else 'rule-driven'}")
    print(f"  cycles {status['cycles']}, moves {status['moves']}, "
          f"{status['bytes_moved']} bytes moved")
    last = status.get("last_cycle")
    if last:
        print(f"  last cycle @{last['time']}: {last['applied']}/"
              f"{last['decisions']} decisions applied "
              f"({last['origin']}), {last['skipped']} skipped")


def _print_placement_plan(plan: Dict[str, object]) -> None:
    if not plan.get("enabled"):
        print("placement: disabled")
        return
    print(f"plan @{plan['time']} objective={plan['objective']} "
          f"tiers {' > '.join(plan['tier_order'])}")
    decisions = plan.get("decisions") or []
    if not decisions:
        print("  no moves scored above threshold")
    for d in decisions:
        applied = ""
        if "applied" in d:
            applied = " [applied]" if d["applied"] else " [failed]"
        print(f"  {d['action']:8s} {d['key']:<24s} "
              f"{d['from']} -> {d['to']}  "
              f"heat={d['heat']:.4f} score={d['score']:.3f} "
              f"({d['reason']}){applied}")
    skipped = plan.get("skipped") or []
    if skipped:
        reasons: Dict[str, int] = {}
        for s in skipped:
            reasons[s["reason"]] = reasons.get(s["reason"], 0) + 1
        summary = ", ".join(f"{k}: {v}" for k, v in sorted(reasons.items()))
        print(f"  skipped {len(skipped)} ({summary})")


def cmd_crashsweep(options) -> int:
    from repro.bench.sim import run_crash_sweep

    try:
        report = run_crash_sweep(
            deployment=options.deployment,
            seed=options.seed,
            max_points=options.max_points,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["summary"]["clean"] else 1


def cmd_cluster(options) -> int:
    action = options.cluster_action
    if action in ("failover", "migrate-crash"):
        from repro.bench.sim import run_failover, run_migration_crash

        if action == "failover":
            report = run_failover(
                seed=options.seed,
                records=options.records,
                duration=options.duration,
                clients=options.clients,
            )
            print(json.dumps(report, indent=2, sort_keys=True))
            ok = (
                not report["acked_write_loss"]
                and not report["hints"]["pending"]
                and not report["anti_entropy"]["final_divergent"]
                and report["fsck"]["clean"]
            )
            return 0 if ok else 1
        report = run_migration_crash(seed=options.seed)
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0 if report["clean"] else 1

    # Live actions go over RPC to a serving shard router.
    if options.port is None:
        print(f"cluster {action} needs --port (a running `repro serve`)",
              file=sys.stderr)
        return 1
    action = action.replace("-", "_")
    result = _manage(options, "cluster", action)
    if result is None:
        return 1
    if not result.enabled:
        print(json.dumps({"enabled": False}, indent=2, sort_keys=True))
        print("server is not a replicated shard cluster", file=sys.stderr)
        return 1
    print(json.dumps(
        {"enabled": True, action: result.state}, indent=2, sort_keys=True
    ))
    if action == "fsck":
        return 0 if result.state["clean"] else 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="Tiera middleware (Middleware 2014 reproduction)"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser("validate", help="parse/compile-check a spec")
    validate.add_argument("spec")
    validate.set_defaults(func=cmd_validate)

    cost = commands.add_parser("cost", help="price a specification per month")
    cost.add_argument("spec")
    cost.add_argument("--arg", action="append", default=[])
    cost.set_defaults(func=cmd_cost)

    serve = commands.add_parser("serve", help="serve an instance over RPC")
    serve.add_argument("spec")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0)
    serve.add_argument("--arg", action="append", default=[])
    serve.add_argument(
        "--backup-root", default=None,
        help="attach a backup store (snapshots + archived WAL) at this "
             "directory",
    )
    serve.set_defaults(func=cmd_serve)

    def live(sub, func):
        """A subcommand that talks to a running server over RPC."""
        sub.add_argument("--host", default="127.0.0.1")
        sub.add_argument("--port", type=int, required=True)
        sub.set_defaults(func=func)
        return sub

    stats = live(commands.add_parser(
        "stats", help="query a running server's observability snapshot"
    ), cmd_stats)
    stats.add_argument(
        "--format", choices=("summary", "json", "prometheus"), default="summary"
    )

    from repro.bench.figures import FIGURES

    rows = ", ".join(FIGURES)
    profile = commands.add_parser(
        "profile",
        help="profile a benchmark scenario (or a running server's "
             "virtual time)",
    )
    profile.add_argument(
        "--scenario", default=None,
        help=f"figure row to profile locally at smoke scale ({rows}; "
             "default fig07)",
    )
    profile.add_argument(
        "--cprofile", action="store_true",
        help="also capture function-level detail via cProfile",
    )
    profile.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    profile.add_argument("--host", default="127.0.0.1")
    profile.add_argument(
        "--port", type=int, default=None,
        help="attribute a running server's virtual time over RPC instead",
    )
    profile.set_defaults(func=cmd_profile)

    bench = commands.add_parser(
        "bench", help="run the figure rows at smoke scale, write BENCH_*.json"
    )
    bench.add_argument(
        "--name", action="append", default=[],
        help=f"row to run (repeatable; default: all of {rows})",
    )
    bench.add_argument(
        "--out", default="benchmarks/telemetry",
        help="directory for BENCH_<name>.json records",
    )
    bench.set_defaults(func=cmd_bench)

    benchdiff = commands.add_parser(
        "benchdiff",
        help="diff BENCH_*.json records against committed baselines",
    )
    benchdiff.add_argument(
        "--baseline", default="benchmarks/baselines",
        help="directory holding the committed baseline records",
    )
    benchdiff.add_argument(
        "--current", required=True,
        help="directory holding the fresh records to check",
    )
    benchdiff.add_argument(
        "--tolerance", type=float, default=0.15,
        help="relative drift of any same-seed number, or virt_ops_per_s "
             "drop, that fails the gate (default 0.15)",
    )
    benchdiff.add_argument(
        "--name", action="append", default=[],
        help="only diff these rows (repeatable)",
    )
    benchdiff.set_defaults(func=cmd_benchdiff)

    chaos = commands.add_parser(
        "chaos", help="run a deterministic fault-injection scenario"
    )
    chaos.add_argument("--scenario", default="transient-errors")
    chaos.add_argument("--deployment", default="write-through")
    chaos.add_argument("--seed", type=int, default=2014)
    chaos.add_argument("--duration", type=float, default=120.0)
    chaos.add_argument("--clients", type=int, default=4)
    chaos.add_argument(
        "--baseline", action="store_true",
        help="run without the resilience layer",
    )
    chaos.add_argument(
        "--list", action="store_true",
        help="list known scenarios and deployments",
    )
    chaos.set_defaults(func=cmd_chaos)

    def params_of(feature, action):
        return features.action_spec(feature, action).params

    fsck = live(commands.add_parser(
        "fsck", help="scrub a running server's metadata vs tier contents"
    ), cmd_fsck)
    _add_flags(fsck, params_of("durability", "fsck"))

    snapshot = live(commands.add_parser(
        "snapshot", help="pull a full snapshot of a running instance"
    ), cmd_snapshot)
    snapshot.add_argument("--out", required=True, help="archive file to write")
    _add_flags(snapshot, params_of("durability", "snapshot"))

    restore = live(commands.add_parser(
        "restore", help="restore a running instance from a snapshot archive"
    ), cmd_restore)
    _add_flags(restore, params_of("durability", "restore"))

    backup = commands.add_parser(
        "backup", help="backup lifecycle of a running instance"
    )
    backup_actions = backup.add_subparsers(
        dest="backup_action", required=True
    )
    for action, summary in (
        ("snapshot", "take a full or incremental snapshot"),
        ("restore", "point-in-time restore from the backup store"),
        ("prune", "apply retention policy to the snapshot catalog"),
        ("verify", "restore the latest chain into a scratch instance "
                   "and check it"),
        ("list", "list the snapshot catalog"),
    ):
        sub = live(backup_actions.add_parser(action, help=summary), cmd_backup)
        _add_flags(sub, params_of("backup", action))

    heat = live(commands.add_parser(
        "heat",
        help="workload heat: hot keys, tier occupancy, access skew",
    ), cmd_heat)
    heat.add_argument(
        "--enable", action="store_true",
        help="turn the tracker on first (it starts disabled)",
    )
    _add_flags(heat, features.FEATURES["heat"].options)
    _add_flags(heat, params_of("heat", "summary"))
    heat.add_argument(
        "--format", choices=("text", "json"), default="text"
    )

    placement = commands.add_parser(
        "placement",
        help="adaptive placement: inspect the plan, status, or run a cycle",
    )
    placement.add_argument(
        "placement_action", nargs="?", default="status",
        choices=("status", "plan", "run"),
        help="status (engine state), plan (score candidates without "
             "moving), run (execute one cycle now)",
    )
    live(placement, cmd_placement)
    placement.add_argument(
        "--enable", action="store_true",
        help="configure the engine on first (it starts disabled)",
    )
    _add_flags(placement, features.FEATURES["placement"].options)
    placement.add_argument(
        "--format", choices=("text", "json"), default="text"
    )

    crashsweep = commands.add_parser(
        "crashsweep",
        help="crash at every boundary of a scripted workload and verify recovery",
    )
    crashsweep.add_argument("--deployment", default="write-through")
    crashsweep.add_argument("--seed", type=int, default=2014)
    crashsweep.add_argument(
        "--max-points", type=int, default=None,
        help="sweep only the first N crash points",
    )
    crashsweep.set_defaults(func=cmd_crashsweep)

    cluster = commands.add_parser(
        "cluster",
        help="replicated shard cluster: offline failover/migration drills "
             "or live status over RPC",
    )
    cluster.add_argument(
        "cluster_action", nargs="?", default="failover",
        choices=("failover", "migrate-crash", "status", "fsck", "replay",
                 "anti-entropy"),
        help="failover/migrate-crash run offline simulations; "
             "status/fsck/replay/anti-entropy talk to a running router",
    )
    cluster.add_argument("--seed", type=int, default=2014)
    cluster.add_argument("--records", type=int, default=24)
    cluster.add_argument("--duration", type=float, default=150.0)
    cluster.add_argument("--clients", type=int, default=3)
    cluster.add_argument("--host", default="127.0.0.1")
    cluster.add_argument(
        "--port", type=int, default=None,
        help="RPC port of a running shard router (live actions only)",
    )
    for action in features.FEATURES["cluster"].actions:
        _add_flags(cluster, action.params)
    cluster.set_defaults(func=cmd_cluster)

    options = parser.parse_args(argv)
    if options.command == "profile" and options.port is not None:
        local = [flag for flag, given in (
            ("--scenario", options.scenario is not None),
            ("--cprofile", options.cprofile),
        ) if given]
        if local:
            profile.error(
                f"{' and '.join(local)} profile a local run, not --port"
            )
    try:
        return options.func(options)
    except BrokenPipeError:
        # Output was piped into e.g. `head`, which closed early — the
        # Unix-normal case, not an error.  Detach stdout so the
        # interpreter's shutdown flush doesn't raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
