"""The paper's instances are packaged spec text, and nothing else.

* Every builder in :mod:`repro.core.templates` compiles its packaged
  spec to exactly the structure the hand-assembled rule trees it
  replaced produced: ``GOLDEN`` was captured from those builders, at
  their defaults and at every keyword set a caller passes.
* Every packaged spec round-trips through the printer, validates and
  prices with no ``--arg``, and stays under §4.1.1's 15 lines.
* Only the spec compiler builds rules and events.
"""

import ast as pyast
from pathlib import Path

import pytest

import repro
from repro.bench.figures import PLACEMENT_POLICIES
from repro.bench.sim import build
from repro.cli import main
from repro.core import templates
from repro.simcloud.cluster import Cluster
from repro.spec import parse, print_spec
from repro.spec.paper import paper_spec
from repro.tiers.registry import TierRegistry

SRC = Path(repro.__file__).parent
PAPER = SRC / "spec" / "paper"
PACKAGED = sorted(path.stem for path in PAPER.glob("*.tiera"))

#: Every builder at its defaults and at each keyword set a caller in
#: src/, benchmarks/, examples/ or tests/ passes (computed sizes stand in
#: as representative literals).  Event guards are not fingerprinted —
#: the specs write ``!=`` where the hand-built trees wrote ``Not(==)``,
#: the same truth table — and timer intervals compare as floats.
CASES = [
    ("low_latency_instance", (), {}),
    ("low_latency_instance", (), {"t": 30.0}),
    ("low_latency_instance", (), {"t": 10.0}),
    ("low_latency_instance", (), {"t": 3600.0, "mem": "64M", "ebs": "64M"}),
    ("low_latency_instance", (), {"t": 15.0, "mem": "64K", "ebs": "1M"}),
    ("low_latency_instance", (), {"t": 30, "mem": "8M", "ebs": "8M"}),
    ("low_latency_instance", (), {"t": 30.0, "mem": "12288", "ebs": "64M"}),
    ("persistent_instance", (), {}),
    ("persistent_instance", (), {"mem": "64K", "ebs": "64K", "backup_threshold": 0.5}),
    ("persistent_instance", (), {"mem": "1M", "ebs": "1M"}),
    ("growing_instance", (), {}),
    ("growing_instance", (), {"t": 3600.0, "mem": "64K", "grow_threshold": 0.75}),
    ("growing_instance", (), {"t": 3600.0, "mem": "2M", "ebs": "64M",
                              "grow_threshold": 0.75, "grow_percent": 100.0}),
    ("memcached_replicated_instance", (), {}),
    ("memcached_replicated_instance", (), {"mem": "1M"}),
    ("memcached_replicated_instance", (), {"mem": "512M"}),
    ("memcached_ebs_instance", (), {}),
    ("memcached_ebs_instance", (), {"mem": "512M", "ebs": "8G"}),
    ("memcached_ebs_instance", (), {"mem": "8M", "ebs": "8M"}),
    ("memcached_ebs_instance", (), {"mem": "64M", "ebs": "256M"}),
    ("memcached_s3_instance", (), {}),
    ("memcached_s3_instance", (), {"mem": "8K"}),
    ("memcached_s3_instance", (), {"mem": "4M"}),
    ("lru_tiered_instance", ("TieredFull",), {"mem": "512000", "ebs": "1024000"}),
    ("lru_tiered_instance", ("LruTiered",), {"mem": "12288", "ebs": "64M"}),
    ("lru_tiered_instance", (), {"name": "TI:1", "mem": "1M", "ebs": "2M", "s3": "10G"}),
    ("high_durability_instance", (), {}),
    ("high_durability_instance", (), {"mem": "100M", "ebs": "100M", "push_interval": 120}),
    ("high_durability_instance", (), {"push_interval": 60}),
    ("high_durability_instance", (), {"mem": "1M", "ebs": "1M"}),
    ("low_durability_instance", (), {}),
    ("low_durability_instance", (), {"mem": "100M", "push_interval": 120}),
    ("replicated_volumes_instance", (), {}),
    ("replicated_volumes_instance", (), {"size": "1M", "trigger_bytes": "48K",
                                         "bandwidth": None}),
    ("replicated_volumes_instance", (), {"size": "64M", "trigger_bytes": "512K",
                                         "bandwidth": "40KB/s"}),
    ("dedup_instance", (), {}),
    ("dedup_instance", (), {"mem": "16M"}),
    ("dedup_instance", (), {"mem": "64K"}),
    ("write_through_instance", (), {}),
    ("write_through_instance", (), {"mem": "64M", "ebs": "64M"}),
    ("write_through_instance", (), {"mem": "4M", "ebs": "4M"}),
    ("ephemeral_s3_reconfiguration", (), {}),
    ("ephemeral_s3_reconfiguration", (), {"backup_interval": 60}),
]


def _cond(c):
    kind = type(c).__name__
    if kind == "Comparison":
        return f"{_cond(c.lhs)}{c.op}{_cond(c.rhs)}"
    if kind == "AttrRef":
        return ".".join(c.path)
    if kind == "Literal":
        return repr(c.value)
    if kind == "And":
        return " && ".join(_cond(p) for p in c.parts)
    if kind == "TierDirtyBytes":
        return f"{c.tier_name}.dirty_bytes"
    if kind == "ObjectsWhere":
        return _cond(c.predicate)
    if kind == "InsertObject":
        return "insert.object"
    raise TypeError(kind)


def _event(e):
    kind = type(e).__name__
    if kind == "ActionEvent":
        return e.kind + (f"=={e.tier}" if e.tier else "")
    if kind == "TimerEvent":
        return f"time={float(e.interval)!r}"
    return _cond(e.condition)


def _response(r):
    kind = type(r).__name__
    if kind in ("Store", "StoreOnce", "Copy", "Move"):
        args = [_cond(r.what), "to=" + "+".join(r.to)]
        if getattr(r, "evict_to", None):
            args.append(f"evict_to={r.evict_to}")
        if getattr(r, "cap", None) is not None:
            args.append(f"cap={r.cap.bytes_per_second!r}")
        if getattr(r, "clear_dirty", True) is False:
            args.append("clear_dirty=False")
    elif kind == "Retrieve":
        args = [_cond(r.what), f"promote_to={r.promote_to}"]
        if r.exclusive:
            args.append("exclusive")
    elif kind == "Grow":
        args = [r.tier, repr(r.percent), f"delay={r.provisioning_delay!r}"]
    elif kind == "SetAttr":
        args = [".".join(r.path), repr(r.value)]
    else:
        raise TypeError(kind)
    return f"{kind}({', '.join(args)})"


def fingerprint(name, tiers, rules, chain):
    """One line per tier and rule: everything a builder decides."""
    lines = [f"instance {name}"]
    for t in tiers:
        lines.append(
            f"tier {t.name} {t.kind} {t.capacity} {t.service.node.zone.name}"
            + (" colocated" if t.colocated else "")
        )
    for tier, target in sorted(chain.items()):
        lines.append(f"evict {tier} -> {target}")
    for r in rules:
        lines.append(
            f"rule {r.name} [{_event(r.event)}]"
            + (" background" if r.background else "")
            + ": " + "; ".join(_response(x) for x in r.responses)
        )
    return tuple(lines)




def _built(builder, args, kwargs):
    built = getattr(templates, builder)(TierRegistry(Cluster(seed=1)), *args, **kwargs)
    if isinstance(built, tuple):  # ephemeral_s3_reconfiguration's parts
        tiers, rules = built
        return fingerprint(None, tiers, rules, {})
    return _of(built)


def _of(instance):
    return fingerprint(instance.name, list(instance.tiers), list(instance.policy),
                       instance.eviction_chain)


def _call(builder, args, kwargs):
    shown = [repr(a) for a in args] + [f"{k}={v!r}" for k, v in kwargs.items()]
    return f"{builder}({', '.join(shown)})"


class TestGoldenFingerprints:
    @pytest.mark.parametrize(
        "builder,args,kwargs", CASES, ids=[_call(*case) for case in CASES]
    )
    def test_builder_matches_golden(self, builder, args, kwargs):
        assert _built(builder, args, kwargs) == GOLDEN[_call(builder, args, kwargs)]

    def test_mysql_memcached_s3_deployment(self):
        instance = build("memcached-s3", 2014, mem="1M").instance
        assert _of(instance) == GOLDEN["mysql_on_memcached_s3(mem='1M')"]

    @pytest.mark.parametrize("policy", PLACEMENT_POLICIES)
    def test_placement_deployments(self, policy):
        instance = build(policy, 1, mem="352K").instance
        assert _of(instance) == GOLDEN[f"_placement_instance({policy!r})"]


class TestPackagedSpecs:
    @pytest.mark.parametrize("name", PACKAGED)
    def test_printer_roundtrip(self, name):
        tree = parse(paper_spec(name))
        assert parse(print_spec(tree)) == tree

    @pytest.mark.parametrize("name", PACKAGED)
    def test_validates_and_prices_without_arguments(self, name, capsys):
        path = str(PAPER / f"{name}.tiera")
        assert main(["validate", path]) == 0
        assert "compiles cleanly" in capsys.readouterr().out
        assert main(["cost", path]) == 0

    @pytest.mark.parametrize("name", PACKAGED)
    def test_under_15_lines(self, name):
        """§4.1.1: each instance's specification is "under 15 lines"."""
        lines = [
            line for line in paper_spec(name).splitlines()
            if line.strip() and not line.strip().startswith("%")
        ]
        assert len(lines) <= 15


class TestOneSource:
    RULE_MACHINERY = ("Rule", "ActionEvent", "TimerEvent", "ThresholdEvent")

    def test_only_the_compiler_builds_rules(self):
        """...in the package, the examples and the benchmarks: a policy
        is spec text."""
        compiler = SRC / "spec" / "compiler.py"
        root = Path(__file__).parents[2]
        examples = sorted((root / "examples").glob("*.py"))
        benchmarks = sorted((root / "benchmarks").rglob("*.py"))
        assert examples and benchmarks
        paths = [*sorted(SRC.rglob("*.py")), *examples, *benchmarks]
        found = []
        for path in paths:
            if path == compiler:
                continue
            for node in pyast.walk(pyast.parse(path.read_text())):
                func = getattr(node, "func", None)
                name = getattr(func, "id", getattr(func, "attr", None))
                if isinstance(node, pyast.Call) and name in self.RULE_MACHINERY:
                    found.append(
                        f"{path.parent.name}/{path.name}:{node.lineno} {name}("
                    )
        assert found == []

    def test_templates_import_no_rule_machinery(self):
        tree = pyast.parse((SRC / "core" / "templates.py").read_text())
        imported = {
            node.module for node in pyast.walk(tree)
            if isinstance(node, pyast.ImportFrom)
        }
        assert not imported & {
            f"repro.core.{module}"
            for module in ("conditions", "events", "responses", "selectors", "policy")
        }


GOLDEN = {
    "low_latency_instance()": (
        'instance LowLatencyInstance',
        'tier tier1 memcached 5368709120 us-east-1a',
        'tier tier2 ebs 5368709120 us-east-1a',
        'rule place-in-memcached [insert]: SetAttr(insert.object.dirty, True); Store(insert.object, to=tier1)',
        "rule write-back [time=30.0]: Copy(object.location=='tier1' && object.dirty==True, to=tier2)",
    ),
    "low_latency_instance(t=30.0)": (
        'instance LowLatencyInstance',
        'tier tier1 memcached 5368709120 us-east-1a',
        'tier tier2 ebs 5368709120 us-east-1a',
        'rule place-in-memcached [insert]: SetAttr(insert.object.dirty, True); Store(insert.object, to=tier1)',
        "rule write-back [time=30.0]: Copy(object.location=='tier1' && object.dirty==True, to=tier2)",
    ),
    "low_latency_instance(t=10.0)": (
        'instance LowLatencyInstance',
        'tier tier1 memcached 5368709120 us-east-1a',
        'tier tier2 ebs 5368709120 us-east-1a',
        'rule place-in-memcached [insert]: SetAttr(insert.object.dirty, True); Store(insert.object, to=tier1)',
        "rule write-back [time=10.0]: Copy(object.location=='tier1' && object.dirty==True, to=tier2)",
    ),
    "low_latency_instance(t=3600.0, mem='64M', ebs='64M')": (
        'instance LowLatencyInstance',
        'tier tier1 memcached 67108864 us-east-1a',
        'tier tier2 ebs 67108864 us-east-1a',
        'rule place-in-memcached [insert]: SetAttr(insert.object.dirty, True); Store(insert.object, to=tier1)',
        "rule write-back [time=3600.0]: Copy(object.location=='tier1' && object.dirty==True, to=tier2)",
    ),
    "low_latency_instance(t=15.0, mem='64K', ebs='1M')": (
        'instance LowLatencyInstance',
        'tier tier1 memcached 65536 us-east-1a',
        'tier tier2 ebs 1048576 us-east-1a',
        'rule place-in-memcached [insert]: SetAttr(insert.object.dirty, True); Store(insert.object, to=tier1)',
        "rule write-back [time=15.0]: Copy(object.location=='tier1' && object.dirty==True, to=tier2)",
    ),
    "low_latency_instance(t=30, mem='8M', ebs='8M')": (
        'instance LowLatencyInstance',
        'tier tier1 memcached 8388608 us-east-1a',
        'tier tier2 ebs 8388608 us-east-1a',
        'rule place-in-memcached [insert]: SetAttr(insert.object.dirty, True); Store(insert.object, to=tier1)',
        "rule write-back [time=30.0]: Copy(object.location=='tier1' && object.dirty==True, to=tier2)",
    ),
    "low_latency_instance(t=30.0, mem='12288', ebs='64M')": (
        'instance LowLatencyInstance',
        'tier tier1 memcached 12288 us-east-1a',
        'tier tier2 ebs 67108864 us-east-1a',
        'rule place-in-memcached [insert]: SetAttr(insert.object.dirty, True); Store(insert.object, to=tier1)',
        "rule write-back [time=30.0]: Copy(object.location=='tier1' && object.dirty==True, to=tier2)",
    ),
    "persistent_instance()": (
        'instance PersistentInstance',
        'tier tier1 memcached 209715200 us-east-1a',
        'tier tier2 ebs 1073741824 us-east-1a',
        'tier tier3 s3 None us-east-1a',
        'evict tier1 -> tier2',
        'rule write-through [insert==tier1]: Copy(insert.object, to=tier2)',
        "rule backup-to-s3 [tier2.filled>=0.5] background: Copy(object.location=='tier2', to=tier3, cap=40960.0)",
    ),
    "persistent_instance(mem='64K', ebs='64K', backup_threshold=0.5)": (
        'instance PersistentInstance',
        'tier tier1 memcached 65536 us-east-1a',
        'tier tier2 ebs 65536 us-east-1a',
        'tier tier3 s3 None us-east-1a',
        'evict tier1 -> tier2',
        'rule write-through [insert==tier1]: Copy(insert.object, to=tier2)',
        "rule backup-to-s3 [tier2.filled>=0.5] background: Copy(object.location=='tier2', to=tier3, cap=40960.0)",
    ),
    "persistent_instance(mem='1M', ebs='1M')": (
        'instance PersistentInstance',
        'tier tier1 memcached 1048576 us-east-1a',
        'tier tier2 ebs 1048576 us-east-1a',
        'tier tier3 s3 None us-east-1a',
        'evict tier1 -> tier2',
        'rule write-through [insert==tier1]: Copy(insert.object, to=tier2)',
        "rule backup-to-s3 [tier2.filled>=0.5] background: Copy(object.location=='tier2', to=tier3, cap=40960.0)",
    ),
    "growing_instance()": (
        'instance GrowingInstance',
        'tier tier1 memcached 209715200 us-east-1a',
        'tier tier2 ebs 2147483648 us-east-1a',
        'evict tier1 -> tier2',
        'rule place-in-memcached [insert]: Store(insert.object, to=tier1)',
        'rule grow-memcached [tier1.filled>=0.75]: Grow(tier1, 100.0, delay=None)',
        "rule write-back-move [time=60.0]: Move(object.location=='tier1' && object.dirty==True, to=tier2)",
    ),
    "growing_instance(t=3600.0, mem='64K', grow_threshold=0.75)": (
        'instance GrowingInstance',
        'tier tier1 memcached 65536 us-east-1a',
        'tier tier2 ebs 2147483648 us-east-1a',
        'evict tier1 -> tier2',
        'rule place-in-memcached [insert]: Store(insert.object, to=tier1)',
        'rule grow-memcached [tier1.filled>=0.75]: Grow(tier1, 100.0, delay=None)',
        "rule write-back-move [time=3600.0]: Move(object.location=='tier1' && object.dirty==True, to=tier2)",
    ),
    "growing_instance(t=3600.0, mem='2M', ebs='64M', grow_threshold=0.75, grow_percent=100.0)": (
        'instance GrowingInstance',
        'tier tier1 memcached 2097152 us-east-1a',
        'tier tier2 ebs 67108864 us-east-1a',
        'evict tier1 -> tier2',
        'rule place-in-memcached [insert]: Store(insert.object, to=tier1)',
        'rule grow-memcached [tier1.filled>=0.75]: Grow(tier1, 100.0, delay=None)',
        "rule write-back-move [time=3600.0]: Move(object.location=='tier1' && object.dirty==True, to=tier2)",
    ),
    "memcached_replicated_instance()": (
        'instance MemcachedReplicated',
        'tier tier1 memcached 2147483648 us-east-1a',
        'tier tier2 memcached 2147483648 us-east-1b',
        'rule replicate [insert]: Store(insert.object, to=tier1+tier2)',
    ),
    "memcached_replicated_instance(mem='1M')": (
        'instance MemcachedReplicated',
        'tier tier1 memcached 1048576 us-east-1a',
        'tier tier2 memcached 1048576 us-east-1b',
        'rule replicate [insert]: Store(insert.object, to=tier1+tier2)',
    ),
    "memcached_replicated_instance(mem='512M')": (
        'instance MemcachedReplicated',
        'tier tier1 memcached 536870912 us-east-1a',
        'tier tier2 memcached 536870912 us-east-1b',
        'rule replicate [insert]: Store(insert.object, to=tier1+tier2)',
    ),
    "memcached_ebs_instance()": (
        'instance MemcachedEBS',
        'tier tier1 memcached 2147483648 us-east-1a',
        'tier tier2 ebs 8589934592 us-east-1a',
        'rule write-through [insert]: Store(insert.object, to=tier1+tier2)',
    ),
    "memcached_ebs_instance(mem='512M', ebs='8G')": (
        'instance MemcachedEBS',
        'tier tier1 memcached 536870912 us-east-1a',
        'tier tier2 ebs 8589934592 us-east-1a',
        'rule write-through [insert]: Store(insert.object, to=tier1+tier2)',
    ),
    "memcached_ebs_instance(mem='8M', ebs='8M')": (
        'instance MemcachedEBS',
        'tier tier1 memcached 8388608 us-east-1a',
        'tier tier2 ebs 8388608 us-east-1a',
        'rule write-through [insert]: Store(insert.object, to=tier1+tier2)',
    ),
    "memcached_ebs_instance(mem='64M', ebs='256M')": (
        'instance MemcachedEBS',
        'tier tier1 memcached 67108864 us-east-1a',
        'tier tier2 ebs 268435456 us-east-1a',
        'rule write-through [insert]: Store(insert.object, to=tier1+tier2)',
    ),
    "memcached_s3_instance()": (
        'instance MemcachedS3',
        'tier tier1 memcached 524288000 us-east-1a',
        'tier tier2 s3 None us-east-1a',
        'evict tier1 -> <drop>',
        'rule cache-and-persist [insert]: Store(insert.object, to=tier1); Copy(insert.object, to=tier2)',
        'rule promote-on-miss [get]: Retrieve(insert.object, promote_to=tier1)',
    ),
    "memcached_s3_instance(mem='8K')": (
        'instance MemcachedS3',
        'tier tier1 memcached 8192 us-east-1a',
        'tier tier2 s3 None us-east-1a',
        'evict tier1 -> <drop>',
        'rule cache-and-persist [insert]: Store(insert.object, to=tier1); Copy(insert.object, to=tier2)',
        'rule promote-on-miss [get]: Retrieve(insert.object, promote_to=tier1)',
    ),
    "memcached_s3_instance(mem='4M')": (
        'instance MemcachedS3',
        'tier tier1 memcached 4194304 us-east-1a',
        'tier tier2 s3 None us-east-1a',
        'evict tier1 -> <drop>',
        'rule cache-and-persist [insert]: Store(insert.object, to=tier1); Copy(insert.object, to=tier2)',
        'rule promote-on-miss [get]: Retrieve(insert.object, promote_to=tier1)',
    ),
    "lru_tiered_instance('TieredFull', mem='512000', ebs='1024000')": (
        'instance TieredFull',
        'tier tier1 memcached 512000 us-east-1a',
        'tier tier2 ebs 1024000 us-east-1a',
        'tier tier3 s3 None us-east-1a',
        'evict tier1 -> tier2',
        'evict tier2 -> tier3',
        'rule place-in-memcached [insert]: Store(insert.object, to=tier1)',
        'rule promote-on-access [get] background: Retrieve(insert.object, promote_to=tier1, exclusive)',
    ),
    "lru_tiered_instance('LruTiered', mem='12288', ebs='64M')": (
        'instance LruTiered',
        'tier tier1 memcached 12288 us-east-1a',
        'tier tier2 ebs 67108864 us-east-1a',
        'tier tier3 s3 None us-east-1a',
        'evict tier1 -> tier2',
        'evict tier2 -> tier3',
        'rule place-in-memcached [insert]: Store(insert.object, to=tier1)',
        'rule promote-on-access [get] background: Retrieve(insert.object, promote_to=tier1, exclusive)',
    ),
    "lru_tiered_instance(name='TI:1', mem='1M', ebs='2M', s3='10G')": (
        'instance TI:1',
        'tier tier1 memcached 1048576 us-east-1a',
        'tier tier2 ebs 2097152 us-east-1a',
        'tier tier3 s3 None us-east-1a',
        'evict tier1 -> tier2',
        'evict tier2 -> tier3',
        'rule place-in-memcached [insert]: Store(insert.object, to=tier1)',
        'rule promote-on-access [get] background: Retrieve(insert.object, promote_to=tier1, exclusive)',
    ),
    "high_durability_instance()": (
        'instance HighDurability',
        'tier tier1 memcached 104857600 us-east-1a',
        'tier tier2 ebs 104857600 us-east-1a',
        'tier tier3 s3 None us-east-1a',
        'rule write-through-ebs [insert]: SetAttr(insert.object.dirty, True); Store(insert.object, to=tier1); Copy(insert.object, to=tier2, clear_dirty=False)',
        "rule push-to-s3 [time=120.0]: Copy(object.location=='tier1' && object.dirty==True, to=tier3)",
    ),
    "high_durability_instance(mem='100M', ebs='100M', push_interval=120)": (
        'instance HighDurability',
        'tier tier1 memcached 104857600 us-east-1a',
        'tier tier2 ebs 104857600 us-east-1a',
        'tier tier3 s3 None us-east-1a',
        'rule write-through-ebs [insert]: SetAttr(insert.object.dirty, True); Store(insert.object, to=tier1); Copy(insert.object, to=tier2, clear_dirty=False)',
        "rule push-to-s3 [time=120.0]: Copy(object.location=='tier1' && object.dirty==True, to=tier3)",
    ),
    "high_durability_instance(push_interval=60)": (
        'instance HighDurability',
        'tier tier1 memcached 104857600 us-east-1a',
        'tier tier2 ebs 104857600 us-east-1a',
        'tier tier3 s3 None us-east-1a',
        'rule write-through-ebs [insert]: SetAttr(insert.object.dirty, True); Store(insert.object, to=tier1); Copy(insert.object, to=tier2, clear_dirty=False)',
        "rule push-to-s3 [time=60.0]: Copy(object.location=='tier1' && object.dirty==True, to=tier3)",
    ),
    "high_durability_instance(mem='1M', ebs='1M')": (
        'instance HighDurability',
        'tier tier1 memcached 1048576 us-east-1a',
        'tier tier2 ebs 1048576 us-east-1a',
        'tier tier3 s3 None us-east-1a',
        'rule write-through-ebs [insert]: SetAttr(insert.object.dirty, True); Store(insert.object, to=tier1); Copy(insert.object, to=tier2, clear_dirty=False)',
        "rule push-to-s3 [time=120.0]: Copy(object.location=='tier1' && object.dirty==True, to=tier3)",
    ),
    "low_durability_instance()": (
        'instance LowDurability',
        'tier tier1 memcached 104857600 us-east-1a',
        'tier tier2 s3 None us-east-1a',
        'rule place-in-memcached [insert]: SetAttr(insert.object.dirty, True); Store(insert.object, to=tier1)',
        "rule push-to-s3 [time=120.0]: Copy(object.location=='tier1' && object.dirty==True, to=tier2)",
    ),
    "low_durability_instance(mem='100M', push_interval=120)": (
        'instance LowDurability',
        'tier tier1 memcached 104857600 us-east-1a',
        'tier tier2 s3 None us-east-1a',
        'rule place-in-memcached [insert]: SetAttr(insert.object.dirty, True); Store(insert.object, to=tier1)',
        "rule push-to-s3 [time=120.0]: Copy(object.location=='tier1' && object.dirty==True, to=tier2)",
    ),
    "replicated_volumes_instance()": (
        'instance ReplicatedVolumes',
        'tier tier1 ebs 1073741824 us-east-1a',
        'tier tier2 ebs 1073741824 us-east-1a',
        'rule write-primary [insert]: SetAttr(insert.object.dirty, True); Store(insert.object, to=tier1)',
        "rule replicate [tier1.dirty_bytes>=52428800] background: Copy(object.location=='tier1' && object.dirty==True, to=tier2)",
    ),
    "replicated_volumes_instance(size='1M', trigger_bytes='48K', bandwidth=None)": (
        'instance ReplicatedVolumes',
        'tier tier1 ebs 1048576 us-east-1a',
        'tier tier2 ebs 1048576 us-east-1a',
        'rule write-primary [insert]: SetAttr(insert.object.dirty, True); Store(insert.object, to=tier1)',
        "rule replicate [tier1.dirty_bytes>=49152] background: Copy(object.location=='tier1' && object.dirty==True, to=tier2)",
    ),
    "replicated_volumes_instance(size='64M', trigger_bytes='512K', bandwidth='40KB/s')": (
        'instance ReplicatedVolumes',
        'tier tier1 ebs 67108864 us-east-1a',
        'tier tier2 ebs 67108864 us-east-1a',
        'rule write-primary [insert]: SetAttr(insert.object.dirty, True); Store(insert.object, to=tier1)',
        "rule replicate [tier1.dirty_bytes>=524288] background: Copy(object.location=='tier1' && object.dirty==True, to=tier2, cap=40960.0)",
    ),
    "dedup_instance()": (
        'instance DedupInstance',
        'tier tier1 memcached 209715200 us-east-1a',
        'tier tier2 s3 None us-east-1a',
        'evict tier1 -> <drop>',
        'rule store-once [insert]: StoreOnce(insert.object, to=tier2)',
        'rule promote-on-miss [get]: Retrieve(insert.object, promote_to=tier1)',
    ),
    "dedup_instance(mem='16M')": (
        'instance DedupInstance',
        'tier tier1 memcached 16777216 us-east-1a',
        'tier tier2 s3 None us-east-1a',
        'evict tier1 -> <drop>',
        'rule store-once [insert]: StoreOnce(insert.object, to=tier2)',
        'rule promote-on-miss [get]: Retrieve(insert.object, promote_to=tier1)',
    ),
    "dedup_instance(mem='64K')": (
        'instance DedupInstance',
        'tier tier1 memcached 65536 us-east-1a',
        'tier tier2 s3 None us-east-1a',
        'evict tier1 -> <drop>',
        'rule store-once [insert]: StoreOnce(insert.object, to=tier2)',
        'rule promote-on-miss [get]: Retrieve(insert.object, promote_to=tier1)',
    ),
    "write_through_instance()": (
        'instance WriteThrough',
        'tier tier1 memcached 1073741824 us-east-1a',
        'tier tier2 ebs 1073741824 us-east-1a',
        'rule write-through [insert]: Store(insert.object, to=tier1+tier2)',
    ),
    "write_through_instance(mem='64M', ebs='64M')": (
        'instance WriteThrough',
        'tier tier1 memcached 67108864 us-east-1a',
        'tier tier2 ebs 67108864 us-east-1a',
        'rule write-through [insert]: Store(insert.object, to=tier1+tier2)',
    ),
    "write_through_instance(mem='4M', ebs='4M')": (
        'instance WriteThrough',
        'tier tier1 memcached 4194304 us-east-1a',
        'tier tier2 ebs 4194304 us-east-1a',
        'rule write-through [insert]: Store(insert.object, to=tier1+tier2)',
    ),
    "ephemeral_s3_reconfiguration()": (
        'instance None',
        'tier tier3 ephemeral 1073741824 us-east-1a',
        'tier tier4 s3 None us-east-1a',
        'rule store-ephemeral [insert]: SetAttr(insert.object.dirty, True); Store(insert.object, to=tier3)',
        "rule backup-ephemeral-to-s3 [time=120.0]: Copy(object.location=='tier3' && object.dirty==True, to=tier4)",
    ),
    "ephemeral_s3_reconfiguration(backup_interval=60)": (
        'instance None',
        'tier tier3 ephemeral 1073741824 us-east-1a',
        'tier tier4 s3 None us-east-1a',
        'rule store-ephemeral [insert]: SetAttr(insert.object.dirty, True); Store(insert.object, to=tier3)',
        "rule backup-ephemeral-to-s3 [time=60.0]: Copy(object.location=='tier3' && object.dirty==True, to=tier4)",
    ),
    "mysql_on_memcached_s3(mem='1M')": (
        'instance MemcachedS3',
        'tier tier1 memcached 1048576 us-east-1a colocated',
        'tier tier2 s3 None us-east-1a',
        'evict tier1 -> <drop>',
        'rule cache-and-persist [insert]: Store(insert.object, to=tier1); Copy(insert.object, to=tier2)',
        'rule promote-on-miss [get]: Retrieve(insert.object, promote_to=tier1)',
    ),
    "_placement_instance('write-through-lru')": (
        'instance WriteThroughLru',
        'tier tier1 memcached 360448 us-east-1a',
        'tier tier2 ebs 16777216 us-east-1a',
        'evict tier1 -> <drop>',
        'rule cache-and-persist [insert]: Store(insert.object, to=tier1); Copy(insert.object, to=tier2)',
        'rule promote-on-miss [get]: Retrieve(insert.object, promote_to=tier1)',
    ),
    "_placement_instance('demand-lru')": (
        'instance DemandLru',
        'tier tier1 memcached 360448 us-east-1a',
        'tier tier2 ebs 16777216 us-east-1a',
        'evict tier1 -> <drop>',
        'rule persist [insert]: Store(insert.object, to=tier2)',
        'rule refresh-cached [insert]: Copy(insert.object, to=tier1)',
        'rule promote-on-miss [get]: Retrieve(insert.object, promote_to=tier1)',
    ),
    "_placement_instance('adaptive')": (
        'instance AdaptivePlacement',
        'tier tier1 memcached 360448 us-east-1a',
        'tier tier2 ebs 16777216 us-east-1a',
        'rule persist [insert]: Store(insert.object, to=tier2)',
        'rule refresh-cached [insert]: Copy(insert.object, to=tier1)',
    ),
}
