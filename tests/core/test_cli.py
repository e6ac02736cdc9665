"""The repro CLI: validate / cost / stats / bench commands, the
live admin commands derived from the feature table, and their golden
table (serve itself is covered via the rpc tests and the CI job)."""

import argparse
import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro import cli
from repro.cli import main
from repro.core import features
from repro.core.api import ManagementResult

SPEC = """
Tiera Demo() {
    tier1: { name: Memcached, size: 1G };
    tier2: { name: EBS, size: 2G };
    event(insert.into) : response {
        store(what: insert.object, to: tier1);
    }
}
"""

PARAMETRIC = """
Tiera Timed(time t) {
    tier1: { name: Memcached, size: 1G };
    event(time=t) : response {
        copy(what: object.location == tier1, to: tier1);
    }
}
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "demo.tiera"
    path.write_text(SPEC)
    return str(path)


class TestValidate:
    def test_valid_spec(self, spec_file, capsys):
        assert main(["validate", spec_file]) == 0
        out = capsys.readouterr().out
        assert "instance Demo" in out
        assert "tier tier1: Memcached" in out
        assert "compiles cleanly" in out

    def test_parametric_spec_lists_params(self, tmp_path, capsys):
        path = tmp_path / "p.tiera"
        path.write_text(PARAMETRIC)
        assert main(["validate", str(path)]) == 0
        assert "time t" in capsys.readouterr().out

    def test_syntax_error(self, tmp_path, capsys):
        path = tmp_path / "bad.tiera"
        path.write_text("Tiera Broken { nope }")
        assert main(["validate", str(path)]) == 1
        assert "syntax error" in capsys.readouterr().err

    def test_missing_file_is_an_error_line_like_cost(self, tmp_path, capsys):
        """Regression: ``validate`` read the spec with a bare ``open`` and
        printed a ``FileNotFoundError`` traceback where ``cost`` on the
        same path prints ``error: ...`` and exits 1."""
        missing = str(tmp_path / "no-such.tiera")
        for command in ("cost", "validate"):
            assert main([command, missing]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "no-such.tiera" in err


class TestCost:
    def test_prices_configuration(self, spec_file, capsys):
        assert main(["cost", spec_file]) == 0
        out = capsys.readouterr().out
        assert "$35.20/month" in out  # 1G memcached + 2G EBS
        assert "tier1 (memcached): $35.00" in out

    def test_args_passed_through(self, tmp_path, capsys):
        path = tmp_path / "p.tiera"
        path.write_text(PARAMETRIC)
        assert main(["cost", str(path), "--arg", "t=30"]) == 0
        assert "$35.00/month" in capsys.readouterr().out

    def test_unknown_argument_is_an_error(self, tmp_path, capsys):
        """Regression: a misspelt ``--arg`` priced the spec's defaults."""
        path = tmp_path / "p.tiera"
        path.write_text(PARAMETRIC)
        assert main(["cost", str(path), "--arg", "t=30", "--arg", "typo=1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "typo" in err

    def test_bad_arg_format(self, spec_file):
        with pytest.raises(SystemExit):
            main(["cost", spec_file, "--arg", "nonsense"])


@pytest.fixture
def live_rpc():
    """A served write-through instance for the stats commands."""
    from repro.core.instance import TieraInstance
    from repro.core.events import ActionEvent
    from repro.core.policy import Policy, Rule
    from repro.core.responses import Store
    from repro.core.selectors import InsertObject
    from repro.core.server import TieraServer
    from repro.rpc import TieraClient, TieraRpcServer
    from repro.simcloud.clock import WallClock
    from repro.simcloud.cluster import Cluster
    from repro.tiers.registry import TierRegistry

    clock = WallClock()
    cluster = Cluster(clock=clock)
    registry = TierRegistry(cluster)
    tiers = [
        registry.create("Memcached", tier_name="tier1", size=64 * 1024 * 1024),
        registry.create("EBS", tier_name="tier2", size=64 * 1024 * 1024),
    ]
    instance = TieraInstance(
        name="cli-test",
        tiers=tiers,
        policy=Policy([
            Rule(
                ActionEvent("insert"),
                [Store(InsertObject(), ("tier1", "tier2"))],
                name="write-through",
            )
        ]),
        clock=clock,
    )
    rpc = TieraRpcServer(TieraServer(instance), port=0).start()
    with TieraClient(rpc.host, rpc.port) as conn:
        for i in range(8):
            conn.put_object(f"k{i}", b"v" * 64).raise_for_error()
            conn.get_object(f"k{i}").raise_for_error()
    yield rpc
    rpc.stop()
    instance.shutdown()
    clock.shutdown()


class TestStatsSummary:
    """Pins the human-facing shape of ``repro stats --format summary``."""

    LATENCY_LINE = re.compile(
        r"^  latency (get|put): "
        r"p50 \d+\.\d{2} ms, p95 \d+\.\d{2} ms, p99 \d+\.\d{2} ms "
        r"\(\d+ ops\)$"
    )

    def test_latency_lines_per_op_family(self, live_rpc, capsys):
        assert main([
            "stats", "--port", str(live_rpc.port), "--format", "summary",
        ]) == 0
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.startswith("  latency ")]
        assert {m.group(1) for m in map(self.LATENCY_LINE.match, lines) if m} \
            == {"get", "put"}
        assert all(self.LATENCY_LINE.match(ln) for ln in lines)

    def test_summary_headline_and_tiers(self, live_rpc, capsys):
        assert main([
            "stats", "--port", str(live_rpc.port), "--format", "summary",
        ]) == 0
        out = capsys.readouterr().out
        assert "instance cli-test — status ok" in out
        assert "tier tier1 (memcached)" in out

    def test_slo_lines_appear_once_installed(self, live_rpc, capsys):
        from repro.rpc import TieraClient

        with TieraClient(live_rpc.host, live_rpc.port) as conn:
            conn.configure("slo").raise_for_error()
        assert main([
            "stats", "--port", str(live_rpc.port), "--format", "summary",
        ]) == 0
        out = capsys.readouterr().out
        slo_lines = [ln for ln in out.splitlines() if ln.startswith("  slo ")]
        assert len(slo_lines) == 4
        assert any("slo get_latency: ok" in ln for ln in slo_lines)

    def test_virtual_seconds_per_service_and_rule(self, live_rpc, capsys):
        """The summary attributes the server's simulated time: one line
        per service and per rule, the numbers ``virtual_breakdown``
        gives for everything charged so far."""
        from repro.obs.export import virtual_breakdown
        from repro.rpc import TieraClient

        assert main(["stats", "--port", str(live_rpc.port)]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.startswith("  virtual ")]
        with TieraClient(live_rpc.host, live_rpc.port) as conn:
            virtual = virtual_breakdown(None, conn.stats(audit_limit=0))
        services, rules = virtual["services"], virtual["rules"]
        assert len(services) == 2 and "write-through (foreground)" in rules
        assert lines == [
            *(f"  virtual service {name}: {services[name]:.3f} s"
              for name in sorted(services, key=lambda n: (-services[n], n))),
            *(f"  virtual rule {rule}: {seconds:.3f} s"
              for rule, seconds in sorted(rules.items())),
        ]

    def test_connection_refused_is_a_clean_error(self, capsys):
        assert main(["stats", "--port", "1", "--format", "summary"]) == 1
        assert "cannot connect" in capsys.readouterr().err


class TestBenchCommands:
    def test_bench_writes_record(self, tmp_path, capsys):
        out_dir = str(tmp_path / "telemetry")
        assert main([
            "bench", "--name", "batch_scaling", "--out", out_dir,
        ]) == 0
        line = capsys.readouterr().out
        assert "batch_scaling: 400 ops" in line
        record = json.load(open(f"{out_dir}/BENCH_batch_scaling.json"))
        assert record["name"] == "batch_scaling"

    PHASE = re.compile(r"([\w/:]+) (\d+\.\d) ms x(\d+)")

    def _phases(self, out: str, row: str):
        """``({path: count}, coverage)`` from the phase line under a row's
        summary line."""
        lines = out.splitlines()
        summary = next(i for i, ln in enumerate(lines)
                       if ln.startswith(f"{row}: "))
        head, _, tail = lines[summary + 1].partition("; ")
        assert head.startswith("  phases: ")
        paths = {m.group(1): int(m.group(3))
                 for m in self.PHASE.finditer(head)}
        coverage = float(re.match(r"(\d+\.\d)% of ", tail).group(1)) / 100
        return paths, coverage

    def test_bench_prints_each_rows_phases(self, tmp_path, capsys):
        """The phase timer times a figure row's phases, never an op."""
        assert main([
            "bench", "--name", "batch_scaling", "--name", "backup_lifecycle",
            "--out", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        paths, coverage = self._phases(out, "batch_scaling")
        assert {"build", "load", "drive"} <= set(paths)
        assert not [p for p in paths
                    if p.split("/")[-1].startswith(("op:", "cluster:"))]
        assert coverage > 0.5
        paths, _ = self._phases(out, "backup_lifecycle")
        assert {"drive/snapshot", "drive/restore"} <= set(paths)

    def test_unknown_row_is_a_clean_error(self, tmp_path, capsys):
        assert main(["bench", "--name", "fig99", "--out", str(tmp_path)]) == 1
        assert "unknown scenario" in capsys.readouterr().err

    def test_the_retired_profile_command_is_a_usage_error(self, capsys):
        """Phases print from ``bench``, virtual time from ``stats``."""
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "--scenario", "batch_scaling"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'profile'" in capsys.readouterr().err

    def test_benchdiff_ok_and_regression(self, tmp_path, capsys):
        baseline = tmp_path / "baseline"
        current = tmp_path / "current"
        for d in (baseline, current):
            d.mkdir()
        record = {
            "schema": 1, "name": "demo", "operations": 10,
            "virt_ops_per_s": 100.0,
            "latency": {"p50": 0.001, "p95": 0.002, "p99": 0.003},
            "wall_seconds": 1.0,
        }
        (baseline / "BENCH_demo.json").write_text(json.dumps(record))
        (current / "BENCH_demo.json").write_text(json.dumps(record))
        assert main([
            "benchdiff", "--baseline", str(baseline),
            "--current", str(current),
        ]) == 0
        assert "benchdiff: ok" in capsys.readouterr().out

        slower = dict(record, virt_ops_per_s=80.0)  # -20%: past the 15% gate
        (current / "BENCH_demo.json").write_text(json.dumps(slower))
        assert main([
            "benchdiff", "--baseline", str(baseline),
            "--current", str(current),
        ]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "benchdiff: FAIL" in captured.err

    def test_benchdiff_missing_baseline_dir(self, tmp_path, capsys):
        current = tmp_path / "current"
        current.mkdir()
        (current / "BENCH_demo.json").write_text(json.dumps({
            "schema": 1, "name": "demo", "operations": 1,
            "virt_ops_per_s": 1.0, "latency": {}, "wall_seconds": 1.0,
        }))
        assert main([
            "benchdiff", "--baseline", str(tmp_path / "nope"),
            "--current", str(current),
        ]) == 1
        assert "no committed baseline" in capsys.readouterr().out


class TestHeatSummary:
    """Pins the heat lines in ``repro stats --format summary``."""

    HEAT_LINE = re.compile(
        r"^  heat: \d+ accesses \(\d+% reads\), \d+ objects tracked, "
        r"skew \d+\.\d{2}, churn \d+\.\d{2}$"
    )
    HOT_LINE = re.compile(r"^  hot keys \(\d+\): \S.*$")

    def _summary(self, rpc, capsys):
        assert main([
            "stats", "--port", str(rpc.port), "--format", "summary",
        ]) == 0
        return capsys.readouterr().out

    def test_disabled_tracker_prints_no_heat_lines(self, live_rpc, capsys):
        out = self._summary(live_rpc, capsys)
        assert "heat:" not in out
        assert "hot keys" not in out

    def test_heat_line_shape(self, live_rpc, capsys):
        from repro.rpc import TieraClient

        with TieraClient(live_rpc.host, live_rpc.port) as conn:
            conn.configure("heat", hot_min=2).raise_for_error()
            for _ in range(4):
                conn.get_object("k0")
        out = self._summary(live_rpc, capsys)
        heat_lines = [ln for ln in out.splitlines()
                      if ln.startswith("  heat: ")]
        assert len(heat_lines) == 1
        assert self.HEAT_LINE.match(heat_lines[0]), heat_lines[0]
        hot_lines = [ln for ln in out.splitlines()
                     if ln.startswith("  hot keys ")]
        assert len(hot_lines) == 1
        assert self.HOT_LINE.match(hot_lines[0]), hot_lines[0]
        assert "k0" in hot_lines[0]


class TestHeatCommand:
    def test_disabled_tracker_reports_and_fails(self, live_rpc, capsys):
        assert main(["heat", "--port", str(live_rpc.port)]) == 1
        assert "not enabled" in capsys.readouterr().out

    def test_config_flags_require_enable(self, live_rpc, capsys):
        assert main([
            "heat", "--port", str(live_rpc.port), "--top-k", "8",
        ]) == 1
        assert "--enable" in capsys.readouterr().err

    def test_enable_and_render_text_report(self, live_rpc, capsys):
        from repro.rpc import TieraClient

        assert main([
            "heat", "--port", str(live_rpc.port), "--enable",
            "--hot-min", "2",
        ]) == 0
        capsys.readouterr()
        with TieraClient(live_rpc.host, live_rpc.port) as conn:
            for _ in range(4):
                conn.get_object("k1")
        assert main(["heat", "--port", str(live_rpc.port)]) == 0
        out = capsys.readouterr().out
        assert "workload heat:" in out
        assert "hot keys (1):" in out
        assert "k1" in out
        assert "tiers:" in out

    def test_json_format_round_trips(self, live_rpc, capsys):
        assert main([
            "heat", "--port", str(live_rpc.port), "--enable",
            "--format", "json",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["enabled"] is True
        assert "hot_keys" in summary

    def test_connection_refused_is_a_clean_error(self, capsys):
        assert main(["heat", "--port", "1"]) == 1
        assert "cannot connect" in capsys.readouterr().err


class TestBackupSummary:
    """Pins the backup-chain lines in ``repro stats --format summary``."""

    BACKUP_LINE = re.compile(
        r"^  backup: \d+ snapshots \(\d+ full, \d+ incremental\), "
        r"wal \d+ records through seq -?\d+"
        r"(, last (full|incremental) #\d+ at t=\d+\.\ds)?$"
    )
    VERIFIED_LINE = re.compile(
        r"^  last verified restore: t=\d+\.\ds (ok|FAILED) "
        r"\(snapshot \d+, \d+ wal records replayed\)$"
    )

    @pytest.fixture
    def backed_rpc(self, live_rpc, tmp_path):
        from repro.rpc import TieraClient

        with TieraClient(live_rpc.host, live_rpc.port) as conn:
            conn.configure("backup", root=str(tmp_path / "bk")).raise_for_error()
        return live_rpc

    def _summary(self, rpc, capsys):
        assert main([
            "stats", "--port", str(rpc.port), "--format", "summary",
        ]) == 0
        return capsys.readouterr().out

    def test_no_backup_store_prints_no_backup_lines(self, live_rpc, capsys):
        out = self._summary(live_rpc, capsys)
        assert "backup:" not in out
        assert "last verified restore" not in out

    def test_chain_line_shape_and_never_verified(self, backed_rpc, capsys):
        from repro.rpc import TieraClient

        with TieraClient(backed_rpc.host, backed_rpc.port) as conn:
            conn.invoke("backup", "snapshot", kind="full").raise_for_error()
        out = self._summary(backed_rpc, capsys)
        lines = [ln for ln in out.splitlines() if ln.startswith("  backup: ")]
        assert len(lines) == 1
        assert self.BACKUP_LINE.match(lines[0]), lines[0]
        assert "(1 full, 0 incremental)" in lines[0]
        assert "  last verified restore: never" in out.splitlines()

    def test_verified_restore_line_shape(self, backed_rpc, capsys):
        from repro.rpc import TieraClient

        with TieraClient(backed_rpc.host, backed_rpc.port) as conn:
            conn.invoke("backup", "snapshot", kind="full").raise_for_error()
            assert conn.invoke("backup", "verify").state["ok"] is True
        out = self._summary(backed_rpc, capsys)
        lines = [
            ln for ln in out.splitlines()
            if ln.startswith("  last verified restore: ")
        ]
        assert len(lines) == 1
        assert self.VERIFIED_LINE.match(lines[0]), lines[0]
        assert " ok (" in lines[0]


class TestLiveRouterCommands:
    """The live admin commands against a shard router: the replicated
    cluster's JSON shape, and the per-shard nests of a 4-shard one."""

    @pytest.fixture
    def served(self):
        from repro.rpc import TieraRpcServer

        servers = []

        def serve(router):
            servers.append(TieraRpcServer(router, port=0).start())
            return servers[-1]

        yield serve
        for rpc in servers:
            rpc.stop()

    @pytest.fixture
    def replicated(self, served):
        from repro.bench.sim import build_shard_cluster
        from repro.core.cluster import ClusterConfig

        _, router, _, _ = build_shard_cluster(
            shards=3, config=ClusterConfig(replication_factor=2)
        )
        yield served(router)
        router.cluster.stop()

    @pytest.fixture
    def four_shards(self, served):
        from repro.core.server import TieraServer
        from repro.core.sharding import ShardedTieraServer
        from repro.core.templates import write_through_instance
        from repro.simcloud.cluster import Cluster
        from repro.tiers.registry import TierRegistry

        router = ShardedTieraServer({
            f"s{i}": TieraServer(write_through_instance(
                TierRegistry(Cluster(seed=i)), mem="4M", ebs="4M"
            ))
            for i in range(4)
        })
        for i in range(20):
            router.put_object(f"k{i}", b"v%d" % i).raise_for_error()
        return router, served(router)

    @pytest.mark.parametrize("action,key", [
        ("status", "status"), ("fsck", "fsck"),
        ("replay", "replay"), ("anti-entropy", "anti_entropy"),
    ])
    def test_cluster_json_is_enabled_plus_the_action(
        self, replicated, capsys, action, key
    ):
        assert main(["cluster", action, "--port", str(replicated.port)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc) == sorted(["enabled", key])
        assert doc["enabled"] is True and isinstance(doc[key], dict)

    def test_cluster_against_a_single_instance(self, live_rpc, capsys):
        assert main(["cluster", "status", "--port", str(live_rpc.port)]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out) == {"enabled": False}
        assert "not a replicated shard cluster" in captured.err

    def test_fsck_folds_clean_across_shards(self, four_shards, capsys):
        _, rpc = four_shards
        assert main(["fsck", "--repair", "--port", str(rpc.port)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert sorted(doc["shards"]) == ["s0", "s1", "s2", "s3"]

    def test_snapshot_and_restore_round_trip(
        self, four_shards, tmp_path, capsys
    ):
        router, rpc = four_shards
        archive = str(tmp_path / "router.tar")
        assert main(["snapshot", "--port", str(rpc.port), "--out", archive]) == 0
        out = capsys.readouterr().out
        assert ": 20 objects, " in out and out.count("state digest") == 4
        for i in range(20):
            router.delete_object(f"k{i}").raise_for_error()
        assert main(["restore", "--port", str(rpc.port), archive]) == 0
        restored = json.loads(capsys.readouterr().out)
        assert all(s["verified"] for s in restored["shards"].values())
        for i in range(20):
            assert router.get_object(f"k{i}").value == b"v%d" % i

    def test_backup_verify_exits_0_when_every_shard_verified(
        self, four_shards, tmp_path, capsys
    ):
        """Regression: a router's answer is a ``{"shards": …}`` nest, and
        ``backup verify`` read ``ok`` off its top level — exit 1 with
        every shard verified."""
        router, rpc = four_shards
        router.configure("backup", root=str(tmp_path / "bk")).raise_for_error()
        port = str(rpc.port)
        assert main(["backup", "snapshot", "--port", port]) == 0
        capsys.readouterr()
        assert main(["backup", "verify", "--port", port]) == 0
        shards = json.loads(capsys.readouterr().out)["shards"]
        assert sorted(shards) == ["s0", "s1", "s2", "s3"]
        assert all(shard["ok"] for shard in shards.values())

    def test_restore_of_one_instances_archive_is_refused(
        self, four_shards, live_rpc, tmp_path, capsys
    ):
        router, rpc = four_shards
        archive = str(tmp_path / "single.tar")
        assert main([
            "snapshot", "--port", str(live_rpc.port), "--out", archive,
        ]) == 0
        assert main(["restore", "--port", str(rpc.port), archive]) == 1
        assert "BAD_CONFIG" in capsys.readouterr().err
        assert all(router.get_object(f"k{i}").ok for i in range(20))


def _subcommands(parser):
    return next((
        action.choices for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ), {})


def _live_parsers():
    """``(parser, row, action)`` of every live command and subcommand."""
    for command in _subcommands(cli.build_parser()).values():
        for parser in (command, *_subcommands(command).values()):
            row = parser.get_default("row")
            if row is not None:
                yield parser, row, parser.get_default("action")


def _never_connect(monkeypatch):
    monkeypatch.setattr(
        cli, "_connect", lambda options: pytest.fail("asked the server")
    )


class TestDerivedFromTheFeatureTable:
    """The live commands are one table over ``features.FEATURES``."""

    def test_every_table_action_is_reachable(self):
        reached = {
            (row.feature, action) for _, row, action in _live_parsers()
            if action != "status"
        }
        assert reached == {
            (feature.name, action.name)
            for feature in features.FEATURES.values()
            for action in feature.actions
        }

    def test_no_parser_takes_a_flag_its_action_does_not_declare(self):
        common = {"-h", "--help", "--host", "--port"}
        for parser, row, action in _live_parsers():
            feature = features.FEATURES[row.feature]
            act = feature.action(action)
            declared = list(act.params if act else ())
            allowed = set(common)
            if row.enable:
                declared += feature.options
                allowed |= {"--enable", "--format"}
            if act is not None and act.bytes_out:
                allowed.add("--out")
            for param in declared:
                dest = param.flag or param.name
                allowed.add(dest if param.type is bytes
                            else "--" + dest.replace("_", "-"))
            taken = {
                name for arg in parser._actions
                for name in (arg.option_strings or [arg.dest])
            }
            assert taken == allowed, (row.name, action)

    def test_a_new_table_action_is_a_subcommand_with_its_flags(
        self, monkeypatch, capsys
    ):
        spec = features.FEATURES["resilience"]
        drain = features.Action(
            "drain_queue", lambda server, max_items=None: {},
            (features.Param("max_items", int, "stop after this many"),),
        )
        monkeypatch.setitem(features.FEATURES, "resilience", replace(
            spec, actions=spec.actions + (drain,)
        ))
        calls = []

        class Client:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def invoke(self, feature, action, **params):
                calls.append((feature, action, params))
                return ManagementResult(
                    feature=feature, action=action, ok=True, enabled=True,
                    state={"drained": params["max_items"]},
                )

        monkeypatch.setattr(cli, "_connect", lambda options: Client())
        assert main([
            "resilience", "drain-queue", "--port", "1", "--max-items", "3",
        ]) == 0
        assert calls == [("resilience", "drain_queue", {"max_items": 3})]
        assert json.loads(capsys.readouterr().out) == {"drained": 3}


class TestLiveCommandErrors:
    def test_restore_of_a_missing_file_is_an_error_line(
        self, monkeypatch, tmp_path, capsys
    ):
        """Regression: a ``FileNotFoundError`` traceback, after the CLI
        had already connected."""
        _never_connect(monkeypatch)
        missing = str(tmp_path / "no-such.tar")
        assert main(["restore", missing, "--port", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no-such.tar" in err

    def test_snapshot_opens_its_output_before_asking_the_server(
        self, monkeypatch, tmp_path, capsys
    ):
        """Regression: the server built the archive, then writing it to
        a missing directory ended in a traceback."""
        _never_connect(monkeypatch)
        out = str(tmp_path / "no-such-dir" / "a.tar")
        assert main(["snapshot", "--port", "1", "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "a.tar" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["cluster", "replay", "--port", "1", "--repair"],
        ["cluster", "status", "--port", "1", "--target", "shard1"],
        ["cluster", "anti-entropy", "--port", "1", "--repair"],
        ["cluster", "failover", "--port", "1", "--target", "shard1"],
        ["cluster", "migrate-crash", "--records", "5"],
        ["profile", "--host", "127.0.0.1"],
    ])
    def test_a_flag_the_command_does_not_take_is_a_usage_error(
        self, monkeypatch, capsys, argv
    ):
        """Regression: each of these ran and silently ignored a flag."""
        import repro.bench.sim as sim

        _never_connect(monkeypatch)
        for drill in ("run_failover", "run_migration_crash"):
            monkeypatch.setattr(sim, drill, lambda **kw: pytest.fail("ran"))
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_counts_are_refused_over_rpc(
        self, live_rpc, tmp_path, capsys
    ):
        from repro.rpc import TieraClient

        port = str(live_rpc.port)
        with TieraClient(live_rpc.host, live_rpc.port) as conn:
            conn.configure("backup", root=str(tmp_path / "bk")).raise_for_error()
            conn.configure("heat").raise_for_error()
            for _ in range(3):
                conn.invoke("backup", "snapshot", kind="full").raise_for_error()
        for argv in (["backup", "prune", "--keep-last", "-1"],
                     ["backup", "prune", "--keep-window", "-1"],
                     ["heat", "--limit", "-1"]):
            assert main([*argv, "--port", port]) == 1
            assert "[BAD_CONFIG]" in capsys.readouterr().err
        assert main(["backup", "list", "--port", port]) == 0
        assert capsys.readouterr().out.count(" full: ") == 3


class TestOfflineDrills:
    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_crashsweep_refuses_a_sweep_of_nothing(
        self, monkeypatch, capsys, points
    ):
        """Regression: ``--max-points 0`` passed a sweep that swept
        nothing; ``-3`` silently skipped the last three boundaries."""
        import repro.bench.sim as sim

        monkeypatch.setattr(sim, "run_crash_sweep", lambda **kw: pytest.fail("ran"))
        with pytest.raises(SystemExit) as excinfo:
            main(["crashsweep", "--max-points", points])
        assert excinfo.value.code == 2
        assert "--max-points: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--records", "--clients"])
    def test_failover_with_nothing_to_drive_is_an_error_line(self, capsys, flag):
        """Regression: both ended in a traceback."""
        assert main(["cluster", "failover", flag, "0", "--duration", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize("field, value, check", [
        ("availability", {"overall": 0.99}, "availability >= 99.9%"),
        ("model", {"violations": 1}, "no ledger violation"),
    ])
    def test_failover_exits_on_the_drill_gate(
        self, monkeypatch, capsys, field, value, check
    ):
        """Regression: the exit status checked neither the availability
        floor nor the ledger, so such a run exited 0."""
        import repro.bench.sim as sim

        passing = {
            "availability": {"overall": 1.0}, "acked_write_loss": 0,
            "model": {"violations": 0}, "hints": {"pending": 0},
            "anti_entropy": {"final_divergent": 0}, "fsck": {"clean": True},
        }
        monkeypatch.setattr(sim, "run_failover", lambda **kw: passing)
        assert main(["cluster", "failover"]) == 0
        capsys.readouterr()
        passing[field] = value
        assert main(["cluster", "failover"]) == 1
        assert capsys.readouterr().err == f"failover gate FAIL: {check}\n"


class TestOneAnswerWhenOff:
    """A feature that is off: its ``{"enabled": false}`` document through
    the command's renderer, one hint line on stderr, exit 1."""

    @pytest.mark.parametrize("argv,out,hint", [
        (["heat"], "heat tracking is not enabled (pass --enable)\n",
         "pass --enable"),
        (["placement", "plan"], "placement: disabled\n", "pass --enable"),
        (["placement", "--format", "json"], '{\n  "enabled": false\n}\n',
         "pass --enable"),
        (["backup", "list"], "", "serve with --backup-root"),
        (["backup", "verify"], '{\n  "enabled": false\n}\n',
         "serve with --backup-root"),
        (["resilience", "replay"], '{\n  "enabled": false\n}\n',
         "management API"),
        (["cluster", "fsck"], '{\n  "enabled": false\n}\n',
         "not a replicated shard cluster"),
    ], ids=["heat", "placement-plan", "placement-json", "backup-list",
            "backup-verify", "resilience-replay", "cluster-fsck"])
    def test_off_feature(self, live_rpc, capsys, argv, out, hint):
        assert main([*argv, "--port", str(live_rpc.port)]) == 1
        captured = capsys.readouterr()
        assert captured.out == out
        [line] = captured.err.splitlines()
        assert "is not enabled on this server" in line and hint in line


class TestTableOnlyActions:
    """``backup mark-immutable`` and ``resilience replay``: table actions
    that had no command."""

    def test_resilience_replay(self, live_rpc, capsys):
        from repro.rpc import TieraClient

        with TieraClient(live_rpc.host, live_rpc.port) as conn:
            conn.configure("resilience").raise_for_error()
        assert main(["resilience", "replay", "--port", str(live_rpc.port)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "replay_kicked" in doc and "repair_queue" in doc

    def test_backup_mark_immutable(self, live_rpc, tmp_path, capsys):
        from repro.rpc import TieraClient

        port = str(live_rpc.port)
        with TieraClient(live_rpc.host, live_rpc.port) as conn:
            conn.configure("backup", root=str(tmp_path / "bk")).raise_for_error()
        assert main(["backup", "snapshot", "--port", port]) == 0
        capsys.readouterr()
        assert main([
            "backup", "mark-immutable", "--port", port, "--snapshot-id", "1",
        ]) == 0
        assert json.loads(capsys.readouterr().out)["immutable"] is True
        assert main(["backup", "list", "--port", port]) == 0
        assert capsys.readouterr().out.rstrip().endswith(" immutable")
        assert main([
            "backup", "mark-immutable", "--port", port, "--snapshot-id", "9",
        ]) == 1
        assert "[BACKUP_ERROR]" in capsys.readouterr().err


# -- the golden table ---------------------------------------------------------
#
# stdout and exit code of every live command x action x --format against
# four simulated-clock deployments, so every number is a pure function of
# the script.  ``cli_golden.json`` holds the expected entries; steps that
# start with ``@`` drive the served façade in process between commands.

GOLDEN = Path(__file__).with_name("cli_golden.json")

_OFF_FEATURES = [
    ["heat"], ["heat", "--format", "json"],
    ["placement"], ["placement", "status", "--format", "json"],
    ["placement", "plan"], ["placement", "plan", "--format", "json"],
    ["placement", "run"], ["placement", "run", "--format", "json"],
    ["backup", "list"], ["backup", "snapshot"], ["backup", "verify"],
    ["backup", "prune", "--keep-last", "1"],
    ["backup", "restore", "--snapshot-id", "1"],
    ["cluster", "status"], ["cluster", "fsck"], ["cluster", "replay"],
    ["cluster", "anti-entropy"],
]

_HEAT_AND_PLACEMENT = [
    ["heat", "--enable", "--hot-min", "2", "--top-k", "8"],
    ["@drive"],
    ["heat"], ["heat", "--format", "json"],
    ["heat", "--limit", "1", "--format", "json"],
    ["placement", "status", "--enable", "--objective", "latency"],
    ["placement", "status", "--format", "json"],
    ["placement", "plan"], ["placement", "plan", "--format", "json"],
    ["placement", "run"], ["placement", "status"],
    ["placement", "run", "--format", "json"],
]

GOLDEN_STEPS = {
    "instance": [
        ["fsck"], ["fsck", "--repair"],
        ["snapshot", "--out", "{tmp}/a.tar"],
        ["snapshot", "--out", "{tmp}/v.tar", "--include-volatile"],
        ["restore", "{tmp}/a.tar"],
        *_OFF_FEATURES,
        *_HEAT_AND_PLACEMENT,
        ["@configure", "resilience"], ["@configure", "slo"], ["@drive"],
        ["stats"],
    ],
    "backup": [
        ["backup", "list"], ["backup", "snapshot", "--kind", "full"],
        ["@drive"],
        ["backup", "snapshot"], ["backup", "list"], ["backup", "verify"],
        ["stats"],
        ["backup", "restore", "--snapshot-id", "1"], ["backup", "list"],
        ["backup", "snapshot", "--kind", "full", "--immutable"],
        ["backup", "prune", "--keep-last", "5"],
        ["backup", "prune", "--keep-last", "1"],
        ["backup", "prune", "--keep-window", "0.5"],
        ["backup", "restore", "--snapshot-id", "99"],
        ["backup", "list"], ["stats"],
    ],
    "four_shards": [
        ["fsck"], ["fsck", "--repair"],
        ["snapshot", "--out", "{tmp}/r.tar"], ["restore", "{tmp}/r.tar"],
        ["restore", "{tmp}/r.tar"],
        *_OFF_FEATURES,
        *_HEAT_AND_PLACEMENT,
        ["stats"],
    ],
    "replicated": [
        ["cluster", "status"], ["cluster", "fsck"],
        ["cluster", "fsck", "--repair"], ["cluster", "replay"],
        ["cluster", "replay", "--target", "shard1"],
        ["cluster", "anti-entropy"],
        ["fsck"], ["heat"], ["placement", "plan"], ["backup", "list"],
        ["heat", "--enable"], ["@drive"], ["heat", "--format", "json"],
        ["stats"],
    ],
}


def _golden_server(deployment: str, tmp: str):
    """``(served façade, stop)`` for one golden deployment."""
    from repro.core.server import TieraServer
    from repro.core.sharding import ShardedTieraServer
    from repro.core.templates import write_through_instance
    from repro.simcloud.cluster import Cluster
    from repro.tiers.registry import TierRegistry

    def instance(seed):
        return TieraServer(write_through_instance(
            TierRegistry(Cluster(seed=seed)), mem="4M", ebs="4M"
        ))

    stop = []
    if deployment == "four_shards":
        server = ShardedTieraServer({f"s{i}": instance(i) for i in range(4)})
    elif deployment == "replicated":
        from repro.bench.sim import build_shard_cluster
        from repro.core.cluster import ClusterConfig

        _, server, _, _ = build_shard_cluster(
            shards=3, config=ClusterConfig(replication_factor=2)
        )
        stop.append(server.cluster.stop)
    else:
        server = instance(7)
        if deployment == "backup":
            server.configure("backup", root=f"{tmp}/bk").raise_for_error()
    for i in range(12):
        server.put_object(f"k{i}", b"v%d" % i * 16).raise_for_error()
    return server, stop


def run_golden(deployment: str, tmp: str):
    """Run one deployment's golden script; its ``[{argv, exit, stdout}]``."""
    import contextlib
    import io

    from repro.rpc import TieraRpcServer

    server, stop = _golden_server(deployment, tmp)
    rpc = TieraRpcServer(server, port=0).start()
    entries = []
    try:
        for step in GOLDEN_STEPS[deployment]:
            if step[0] == "@drive":
                for _ in range(4):
                    for key in ("k0", "k1"):
                        server.get_object(key).raise_for_error()
                    server.put_object("k2", b"w" * 64).raise_for_error()
                continue
            if step[0] == "@configure":
                server.configure(step[1]).raise_for_error()
                continue
            argv = [arg.replace("{tmp}", tmp) for arg in step]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*argv, "--port", str(rpc.port)])
            entries.append({
                "argv": step, "exit": code,
                "stdout": out.getvalue().replace(tmp, "<tmp>"),
            })
    finally:
        rpc.stop()
        for call in stop:
            call()
    return entries


@pytest.mark.parametrize("deployment", sorted(GOLDEN_STEPS))
def test_golden_table(deployment, tmp_path):
    """Every live command's stdout and exit code, byte for byte."""
    expected = json.loads(GOLDEN.read_text())[deployment]
    got = run_golden(deployment, str(tmp_path))
    assert [e["argv"] for e in got] == [e["argv"] for e in expected]
    for have, want in zip(got, expected):
        assert have == want, " ".join(want["argv"])
