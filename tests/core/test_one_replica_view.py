"""Lint: one replica view in the shard cluster.

Anti-entropy, cluster fsck, replica repair and the rebalance sweep ask
the shards what they hold for a key through one method,
``ClusterManager._copies`` (docs/CLUSTER.md, "Anti-entropy").  So no
module in ``src/repro`` defines the Merkle tree the sweep used to
rebuild from every key, nor the per-path holder and rank reads, and
``core/cluster.py`` reads a shard's metadata (``.stat(...)``) only in
the replica view, the read path's checksum vote, its own ``stat`` and
the shard-to-shard copy.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parents[2] / "src" / "repro"
CLUSTER = "core/cluster.py"
RETIRED = {"_merkle", "_bucket", "MERKLE_BUCKETS", "_holders", "_rank"}
#: the functions of ``core/cluster.py`` that may call ``.stat(...)``
STAT_READERS = {"_copies", "_checksum_vote", "stat", "_transfer"}


def sites(tree):
    """``(kind, line)`` for each retired definition and each
    ``.stat(...)`` call outside :data:`STAT_READERS`."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            if node.name in RETIRED:
                found.append(("defines", node.lineno))
            if isinstance(node, ast.FunctionDef):
                function = node.name
        elif isinstance(node, ast.Assign):
            found.extend(
                ("defines", node.lineno) for target in node.targets
                if isinstance(target, ast.Name) and target.id in RETIRED
            )
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "stat"
              and function not in STAT_READERS):
            found.append(("stat", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return sorted(found, key=lambda site: site[1])


def violations(root):
    """``{module: [(kind, line)]}`` for each site the rules forbid."""
    found = {}
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        bad = [
            (kind, line)
            for kind, line in sites(ast.parse(path.read_text()))
            if kind == "defines" or name == CLUSTER
        ]
        if bad:
            found[name] = bad
    return found


def test_one_replica_view():
    assert violations(SRC) == {}


def test_the_four_paths_read_through_the_view():
    tree = ast.parse((SRC / CLUSTER).read_text())
    callers = {
        function.name
        for function in ast.walk(tree) if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and node.attr == "_copies"
    }
    assert {"_diverges", "fsck", "_converge_replicas", "_rebalance"} <= callers


def test_the_lint_sees_planted_sites(tmp_path):
    (tmp_path / "core").mkdir()
    (tmp_path / "core" / "cluster.py").write_text(
        "class ClusterManager:\n"
        "    def _copies(self, key, shards):\n"
        "        return {s: self.shards[s].stat(key) for s in shards}\n"
        "    def fsck(self, key):\n"
        "        return self.shards['a'].stat(key)\n"
        "    def _merkle(self, shard, keys):\n"
        "        pass\n"
    )
    (tmp_path / "core" / "backup.py").write_text(
        "MERKLE_BUCKETS = 16\n"
        "def _bucket(key):\n"
        "    return os.stat(key)\n"
    )
    assert violations(tmp_path) == {
        "core/backup.py": [("defines", 1), ("defines", 2)],
        "core/cluster.py": [("stat", 5), ("defines", 6)],
    }
