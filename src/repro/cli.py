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
  when the server is a shard router) with the virtual seconds charged
  per service and per rule.
* ``chaos [--scenario S] [--seed N] [--baseline] ...`` — run one
  deterministic fault-injection scenario against a canned deployment
  and print the JSON report.  Same seed ⇒ byte-identical output (the
  ``chaos`` figure row digests these reports).
* ``crashsweep [--deployment D] [--seed N] ...`` — offline: crash a
  scripted workload at every registered crash point, reopen, verify
  recovery invariants, print the JSON report (byte-identical across
  same-seed runs).
* ``bench [--name S ...] [--out DIR]`` — run the figure rows at smoke
  scale and write one ``BENCH_<name>.json`` record each; each row's
  summary line is followed by its build/load/drive wall-clock phases
  and the share of the row's wall time they cover (records stay
  virtual-only).  Function-level detail:
  ``python -m cProfile -s cumtime -m repro bench --name S``; per-op
  wall cost is ``benchmarks/perf``'s.
* ``benchdiff --current DIR [--baseline DIR] [--tolerance F]`` —
  compare fresh records against the committed baselines; exits nonzero
  when a baseline has no fresh record, a shape predicate fails, or a
  same-seed number drifts beyond the tolerance (the CI figures job's
  gate).
* ``cluster failover|migrate-crash [--seed N] ...`` — the replicated
  cluster's offline drills (``failover`` is the default); ``failover``
  exits 0 iff the report passes ``repro.bench.sim.failover_gate``.

The live admin commands are one table, :data:`COMMANDS`, over the
management API's feature table (``repro.core.features.FEATURES``); each
talks to a running server (``--port P [--host H]``):

* ``fsck [--repair]``, ``snapshot --out FILE``, ``restore FILE`` — the
  durability actions: metadata/tier scrub, barman-style full backup and
  restore;
* ``backup <snapshot|restore|prune|verify|list|mark-immutable>`` — the
  backup lifecycle against a server started with ``--backup-root``;
* ``resilience replay`` — kick the repair queue;
* ``heat [--enable] [--format text|json]`` — hot keys, tier occupancy,
  the occupancy timeline;
* ``placement [status|plan|run] [--enable] [--format text|json]`` — the
  adaptive placement engine (``status`` is the default);
* ``cluster <status|fsck|replay|anti-entropy>`` — a shard router's
  membership, at any replication factor.

A command row names its feature and, for a single-action command, the
action; each action of a multi-action command is a subcommand.  Every
flag comes from the table: an action's ``Param``s (a ``bytes`` one is a
file to read; a byte-valued result is written to ``--out``) and, with
``--enable``, the feature's configure options.  Output goes through
:data:`RENDERERS` (keyed by ``(feature, action)``, sorted JSON
otherwise); :data:`EXIT_OK` says which results exit nonzero.  A feature
that is off prints ``{"enabled": false}`` through the renderer, one hint
line on stderr, and exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections import Counter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.core import features
from repro.core.errors import FEATURE_DISABLED, TieraError
from repro.core.server import TieraServer
from repro.obs.export import parse_labels, virtual_breakdown
from repro.obs.heat import render_report
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


def _error(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 1


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
        return _error(exc)
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
        return _error(exc)
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
        return _error(exc)
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
            _print_json(snapshot)
            return 0
        # summary: the headline numbers a human wants at a glance.
        health = client.health()
        if "shards" in health:
            _print_router_summary(health, snapshot, options)
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
        _print_status(health, "resilience", options)
        fired = health["rules_fired"]
        if fired:
            print("  rules fired:", ", ".join(
                f"{name}×{count}" for name, count in sorted(fired.items())
            ))
        _print_latency_summary(snapshot)
        _print_virtual_summary(snapshot)
        _print_status(health, "slo", options)
        _print_heat_summary(health.get("heat"))
        _print_status(health, "backup", options)
        print(f"  background errors: {health['background_errors']} "
              f"(audit: {health['audit_errors']})")
        _print_audit_tail(snapshot)
    return 0


def _print_status(health: Dict[str, object], feature: str, options) -> None:
    """A feature's status as ``health()`` embeds it (only while on),
    through the same renderer as everywhere else."""
    if health.get(feature):
        RENDERERS[feature, "status"](health[feature], options)


def _print_router_summary(health: Dict[str, object],
                          snapshot: Dict[str, object], options) -> None:
    """The stats summary of a shard router: what its ``health()``
    carries — one line per shard with its failure-detector state, the
    hint queue, the latency of the router's client requests, its SLOs,
    the heat headline."""
    shards = health["shards"]
    objects = sum(shard["objects"] for shard in shards.values())
    print(f"router — status {health['status']} at t={health['time']:.1f}s, "
          f"{len(shards)} shards, {objects} objects")
    cluster = health["cluster"]
    for name, shard in sorted(shards.items()):
        print(f"  shard {name}: {shard['status']}, "
              f"{shard['objects']} objects, {cluster['shards'][name]}")
    print(f"  cluster: {cluster['replicas']} replicas, "
          f"{cluster['hints']['pending']} hints pending, "
          f"{cluster['journal_pending']} migration intents pending")
    _print_latency_summary(snapshot)
    _print_virtual_summary(snapshot)
    _print_status(health, "slo", options)
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


def _print_virtual_summary(snapshot: Dict[str, object]) -> None:
    """Where the server's simulated time has gone so far: one line per
    service (busiest first), then one per rule and mode."""
    virtual = virtual_breakdown(None, snapshot)
    services = virtual["services"]
    for name in sorted(services, key=lambda n: (-services[n], n)):
        print(f"  virtual service {name}: {services[name]:.3f} s")
    for rule, seconds in sorted(virtual["rules"].items()):
        print(f"  virtual rule {rule}: {seconds:.3f} s")


def cmd_bench(options) -> int:
    from time import perf_counter

    from repro.bench.figures import FIGURES, run_figure
    from repro.bench.telemetry import make_record, write_record

    failed = []
    for name in options.name or list(FIGURES):
        started = perf_counter()
        try:
            trial = run_figure(name, "smoke")
        except ValueError as exc:
            return _error(exc)
        measured = perf_counter() - started
        record = make_record(trial)
        path = write_record(record, options.out)
        failed += [f"{name}: {check}"
                   for check, ok in record["checks"].items() if not ok]
        print(f"{name}: {record['operations']} ops, "
              f"{record['virt_ops_per_s']:.1f} virtual ops/s, "
              f"p95 {record['latency']['p95'] * 1000:.2f} ms, "
              f"{len(record['checks'])} predicates -> {path}")
        print(f"  {trial.profiler.report(measured)}")
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
        return _error(exc)
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
        return _error(exc)
    _print_json(report)
    return 0


def cmd_crashsweep(options) -> int:
    from repro.bench.sim import run_crash_sweep

    try:
        report = run_crash_sweep(
            deployment=options.deployment,
            seed=options.seed,
            max_points=options.max_points,
        )
    except ValueError as exc:
        return _error(exc)
    _print_json(report)
    return 0 if report["summary"]["clean"] else 1


def cmd_failover(options) -> int:
    from repro.bench.sim import failover_gate, run_failover

    try:
        report = run_failover(
            seed=options.seed,
            records=options.records,
            duration=options.duration,
            clients=options.clients,
        )
    except ValueError as exc:
        return _error(exc)
    _print_json(report)
    failed = failover_gate(report)
    for name in failed:
        print(f"failover gate FAIL: {name}", file=sys.stderr)
    return 1 if failed else 0


def cmd_migrate_crash(options) -> int:
    from repro.bench.sim import run_migration_crash

    report = run_migration_crash(seed=options.seed)
    _print_json(report)
    return 0 if report["clean"] else 1


def _connect(options):
    from repro.rpc import TieraClient

    try:
        return TieraClient(options.host, options.port)
    except OSError as exc:
        print(f"cannot connect to {options.host}:{options.port}: {exc}",
              file=sys.stderr)
        return None


def _refused(what: str, result) -> int:
    print(f"{what} failed: [{result.error}] {result.error_message}",
          file=sys.stderr)
    return 1


# -- the live admin commands: one table over the feature table ---------------


class Command(NamedTuple):
    """A live admin command: what ``features.FEATURES`` cannot say."""

    name: str
    feature: str
    #: the one action it runs; ``None``: each of the feature's actions
    #: is a subcommand.
    action: Optional[str] = None
    #: takes ``--enable``, the feature's configure options as flags, and
    #: ``--format text|json``.
    enable: bool = False
    #: the feature's status is a subcommand too, ``status``.
    status: bool = False


COMMANDS = (
    Command("fsck", "durability", "fsck"),
    Command("snapshot", "durability", "snapshot"),
    Command("restore", "durability", "restore"),
    Command("backup", "backup"),
    Command("resilience", "resilience"),
    Command("heat", "heat", "summary", enable=True),
    Command("placement", "placement", enable=True, status=True),
    Command("cluster", "cluster", status=True),
)

#: Why a feature is off, for the hint line (``--enable`` commands: pass it).
_TURN_ON = {
    "backup": "serve with --backup-root",
    "cluster": "not a shard router",
    "resilience": "configure it through the management API",
}

_OFF = {"enabled": False}


def cmd_live(options) -> int:
    """Every live admin command: connect, configure on ``--enable``, ask
    for the status or run the action, render, exit."""
    row, action = options.row, options.action
    spec = features.FEATURES[row.feature]
    act = spec.action(action)
    with contextlib.ExitStack() as files:
        try:
            params = _flag_params(options, act.params if act else ())
            if act is not None and act.bytes_out:
                options.out = files.enter_context(open(options.out, "wb"))
        except OSError as exc:
            return _error(exc)
        config = _flag_params(options, spec.options) if row.enable else {}
        if config and not options.enable:
            print("configuration flags need --enable", file=sys.stderr)
            return 1
        client = _connect(options)
        if client is None:
            return 1
        with client:
            if row.enable and options.enable:
                configured = client.configure(row.feature, **config)
                if not configured.ok:
                    return _refused(f"{row.feature} configure", configured)
            result = (client.invoke(row.feature, action, **params) if act
                      else client.feature_status(row.feature))
        if not result.ok and result.error != FEATURE_DISABLED:
            return _refused(f"{row.feature} {action}", result)
        off = not result.enabled and (act is None or act.needs_enabled)
        doc = _OFF if off else result.state
        render = (_print_json if getattr(options, "format", "") == "json"
                  else RENDERERS.get((row.feature, action), _print_json))
        render(doc, options)
    if off:
        how = "pass --enable" if row.enable else _TURN_ON[row.feature]
        print(f"{row.feature} is not enabled on this server ({how})",
              file=sys.stderr)
        return 1
    ok = EXIT_OK.get((row.feature, action))
    return 0 if ok is None or ok(doc) else 1


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


def _add_flags(parser, params) -> None:
    """argparse arguments for registry param specs: booleans are
    switches, ``repeat`` params repeatable flags, and ``bytes`` params
    a positional file whose content is the value."""
    for param in params:
        dest = param.flag or param.name
        if param.type is bytes:
            parser.add_argument(dest, help=param.help)
            continue
        if param.type is bool:
            kind = {"action": "store_true"}
        elif param.repeat:
            kind = {"type": param.type, "action": "append", "default": []}
        else:
            kind = {"type": param.type, "choices": param.choices}
        parser.add_argument(
            "--" + dest.replace("_", "-"), dest=dest, help=param.help, **kind
        )


def _add_live(commands, row: Command):
    """``row``'s parser; for a multi-action command, its subcommands
    group (one subparser per action, with exactly its flags)."""
    actions = [a.name for a in features.FEATURES[row.feature].actions]
    names = ([row.action] if row.action
             else (["status"] if row.status else []) + actions)
    shown = " | ".join(name.replace("_", "-") for name in names)
    parser = commands.add_parser(
        row.name, help=f"{row.feature} {shown} on a running server"
    )
    if row.action is not None:
        _live_flags(parser, row, row.action)
        return None
    group = parser.add_subparsers(dest="subcommand", required=True)
    for action in names:
        _live_flags(group.add_parser(action.replace("_", "-")), row, action)
    return group


def _live_flags(parser, row: Command, action: str) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    if row.enable:
        parser.add_argument("--enable", action="store_true",
                            help=f"configure {row.feature} on first")
        _add_flags(parser, features.FEATURES[row.feature].options)
        parser.add_argument("--format", choices=("text", "json"), default="text")
    act = features.action_spec(row.feature, action)
    if act is not None:
        _add_flags(parser, act.params)
        if act.bytes_out:
            parser.add_argument(
                "--out", required=True,
                help=f"file to write the {', '.join(act.bytes_out)} to",
            )
    parser.set_defaults(func=cmd_live, row=row, action=action)


# -- renderers and exit rules, keyed by (feature, action) ---------------------


def _print_json(doc, options=None) -> None:
    """Sorted, indented JSON: every renderer's fallback (``options``
    unused)."""
    print(json.dumps(doc, indent=2, sort_keys=True))


def _per_shard(doc: Dict[str, object]) -> List[Dict[str, object]]:
    """The per-shard documents of a multi-shard router's answer (its
    ``{"shards": {name: doc}}`` nest); from anything else, the one."""
    return list(doc["shards"].values()) if set(doc) == {"shards"} else [doc]


def _on_every_shard(field: str) -> Callable[[dict], bool]:
    """``field`` is true in the answer of every shard (or the one)."""
    return lambda doc: all(d.get(field) for d in _per_shard(doc))


def _write_snapshot(doc: Dict[str, object], options) -> None:
    """Write the archive to ``--out`` (opened before the call) and say
    what it holds."""
    archive = doc["archive"]
    manifests = _per_shard(doc["manifest"])
    options.out.write(archive)
    names = dict.fromkeys(m["instance"] for m in manifests)
    print(f"snapshot of {', '.join(names)}: "
          f"{sum(m['objects'] for m in manifests)} objects, "
          f"{len(archive)} bytes -> {options.out.name}")
    for manifest in manifests:
        print(f"  state digest {manifest['state_digest']}")


def _print_snapshots(doc: Dict[str, object], options) -> None:
    for entry in doc.get("snapshots", ()):
        flags = "".join(f" {flag}" for flag in ("immutable", "retired")
                        if entry.get(flag))
        parent = (f" parent #{entry['parent']}"
                  if entry.get("parent") is not None else "")
        print(f"#{entry['id']} {entry['kind']}: "
              f"{entry['objects']} objects, {entry['bytes']} bytes, "
              f"seq {entry['base_seq']}..{entry['upto_seq']}"
              f"{parent}{flags}")


def _print_backup_status(backup: Dict[str, object], options) -> None:
    """Backup-chain status lines (the stats summary's): a ``backup:``
    chain line and a ``last verified restore:`` line."""
    last = backup.get("last_snapshot")
    wal = backup["wal"]
    chain = (f"{backup['snapshots']} snapshots "
             f"({backup['full']} full, {backup['incremental']} incremental)")
    tail = "" if last is None else (f", last {last['kind']} #{last['id']} "
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


def _print_resilience(status: Dict[str, object], options) -> None:
    print(f"  resilience: {status['retries']} retries, "
          f"{status['degraded_writes']} degraded writes, "
          f"{status['replays']} repairs replayed "
          f"({status['repair_queue']['pending']} pending)")


def _print_slo(status: Dict[str, object], options) -> None:
    for objective in status["objectives"]:
        flag = "ALERTING" if objective["alerting"] else (
            "ok" if objective["compliant"] else "breaching"
        )
        print(f"  slo {objective['name']}: {flag} "
              f"(current {objective['current']}, "
              f"burn {objective['burn_rate']:.2f}x)")


def _each_shard(render: Callable[..., None]) -> Callable[..., None]:
    """``render`` each shard of a multi-shard router's ``{"shards": …}``
    nest under a ``shard <name>:`` line; anything else, the one."""
    def each(doc: Dict[str, object], options) -> None:
        if set(doc) != {"shards"}:
            return render(doc, options)
        for name, shard in sorted(doc["shards"].items()):
            print(f"shard {name}:")
            render(shard, options)

    return each


def _print_placement_status(status: Dict[str, object], options) -> None:
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


def _print_placement_plan(plan: Dict[str, object], options) -> None:
    if not plan.get("enabled"):
        print("placement: disabled")
        return
    print(f"plan @{plan['time']} objective={plan['objective']} "
          f"tiers {' > '.join(plan['tier_order'])}")
    decisions = plan.get("decisions") or []
    if not decisions:
        print("  no moves scored above threshold")
    for d in decisions:
        applied = ("" if "applied" not in d
                   else " [applied]" if d["applied"] else " [failed]")
        print(f"  {d['action']:8s} {d['key']:<24s} "
              f"{d['from']} -> {d['to']}  "
              f"heat={d['heat']:.4f} score={d['score']:.3f} "
              f"({d['reason']}){applied}")
    skipped = plan.get("skipped") or []
    if skipped:
        reasons = Counter(s["reason"] for s in skipped)
        summary = ", ".join(f"{k}: {v}" for k, v in sorted(reasons.items()))
        print(f"  skipped {len(skipped)} ({summary})")


def _print_cluster(doc: Dict[str, object], options) -> None:
    """The replicated cluster's answers nest under the action's name."""
    _print_json(doc if doc == _OFF else {"enabled": True, options.action: doc})


#: Text renderers, ``render(doc, options)``; any other pair prints JSON.
RENDERERS: Dict[Tuple[str, str], Callable[..., None]] = {
    ("heat", "summary"): lambda doc, options: print(render_report(doc)),
    ("placement", "status"): _each_shard(_print_placement_status),
    ("placement", "plan"): _each_shard(_print_placement_plan),
    ("placement", "run"): _each_shard(_print_placement_plan),
    ("backup", "list"): _print_snapshots,
    ("durability", "snapshot"): _write_snapshot,
    ("resilience", "status"): _print_resilience,
    ("backup", "status"): _print_backup_status,
    ("slo", "status"): _print_slo,
    **{("cluster", name): _print_cluster for name in (
        "status", *(a.name for a in features.FEATURES["cluster"].actions)
    )},
}

#: Which results exit nonzero, ``ok(doc) -> bool``; any other pair is 0.
EXIT_OK: Dict[Tuple[str, str], Callable[[dict], bool]] = {
    ("durability", "fsck"): _on_every_shard("clean"),
    ("durability", "restore"): _on_every_shard("verified"),
    ("backup", "verify"): _on_every_shard("ok"),
    ("cluster", "fsck"): lambda doc: doc["clean"],
}


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Every command's parser; the live ones from :data:`COMMANDS` and
    the feature table as it is now."""
    from repro.bench.figures import FIGURES

    parser = argparse.ArgumentParser(
        prog="repro", description="Tiera middleware (Middleware 2014 reproduction)"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, group=commands):
        sub = group.add_parser(name, help=help)
        sub.set_defaults(func=func)
        return sub

    validate = command("validate", cmd_validate, "parse/compile-check a spec")
    validate.add_argument("spec")
    cost = command("cost", cmd_cost, "price a specification per month")
    cost.add_argument("spec")
    cost.add_argument("--arg", action="append", default=[])

    serve = command("serve", cmd_serve, "serve an instance over RPC")
    serve.add_argument("spec")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0)
    serve.add_argument("--arg", action="append", default=[])
    serve.add_argument("--backup-root", help="attach a backup store "
                       "(snapshots + archived WAL) at this directory")

    stats = command(
        "stats", cmd_stats, "query a running server's observability snapshot"
    )
    stats.add_argument("--host", default="127.0.0.1")
    stats.add_argument("--port", type=int, required=True)
    stats.add_argument(
        "--format", choices=("summary", "json", "prometheus"), default="summary"
    )

    rows = ", ".join(FIGURES)
    bench = command("bench", cmd_bench,
                    "run the figure rows at smoke scale, write BENCH_*.json")
    bench.add_argument("--name", action="append", default=[],
                       help=f"row to run (repeatable; default: all of {rows})")
    bench.add_argument("--out", default="benchmarks/telemetry",
                       help="directory for BENCH_<name>.json records")

    benchdiff = command("benchdiff", cmd_benchdiff,
                        "diff BENCH_*.json records against committed baselines")
    benchdiff.add_argument("--baseline", default="benchmarks/baselines",
                           help="directory holding the committed baseline records")
    benchdiff.add_argument("--current", required=True,
                           help="directory holding the fresh records to check")
    benchdiff.add_argument(
        "--tolerance", type=float, default=0.15,
        help="relative drift of any same-seed number, or virt_ops_per_s "
             "drop, that fails the gate (default 0.15)",
    )
    benchdiff.add_argument("--name", action="append", default=[],
                           help="only diff these rows (repeatable)")

    chaos = command("chaos", cmd_chaos,
                    "run a deterministic fault-injection scenario")
    chaos.add_argument("--scenario", default="transient-errors")
    chaos.add_argument("--deployment", default="write-through")
    chaos.add_argument("--seed", type=int, default=2014)
    chaos.add_argument("--duration", type=float, default=120.0)
    chaos.add_argument("--clients", type=int, default=4)
    chaos.add_argument("--baseline", action="store_true",
                       help="run without the resilience layer")
    chaos.add_argument("--list", action="store_true",
                       help="list known scenarios and deployments")

    crashsweep = command(
        "crashsweep", cmd_crashsweep,
        "crash at every boundary of a scripted workload and verify recovery",
    )
    crashsweep.add_argument("--deployment", default="write-through")
    crashsweep.add_argument("--seed", type=int, default=2014)
    crashsweep.add_argument("--max-points", type=_at_least_one,
                            help="sweep only the first N crash points")

    groups = {row.name: _add_live(commands, row) for row in COMMANDS}
    failover = command("failover", cmd_failover, "offline drill: kill a "
                       "replicated shard mid-workload", groups["cluster"])
    failover.add_argument("--seed", type=int, default=2014)
    failover.add_argument("--records", type=int, default=24)
    failover.add_argument("--duration", type=float, default=150.0)
    failover.add_argument("--clients", type=int, default=3)
    migrate = command("migrate-crash", cmd_migrate_crash, "offline drill: "
                      "crash add_shard at every boundary", groups["cluster"])
    migrate.add_argument("--seed", type=int, default=2014)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # `placement` alone means `placement status`, `cluster` alone
    # `cluster failover`: the subcommand goes in before any flag.
    default = {"placement": "status", "cluster": "failover"}.get(
        argv[0] if argv else ""
    )
    if default and (len(argv) == 1 or (
        argv[1].startswith("-") and argv[1] not in ("-h", "--help")
    )):
        argv.insert(1, default)
    options = parser.parse_args(argv)
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
