"""Lint: one deferred-write queue, built by the two layers that park writes.

Tier repair (``core/resilience.py``) and hinted handoff
(``core/cluster.py``) park writes for a sick target in the one
``DeferredQueue`` of ``core/deferred.py`` and drain it with its one
``drain`` (docs/RESILIENCE.md, "One deferred-write queue").  So no
module in ``src/repro`` defines a queue or entry type of its own under
the old names, only those two layers construct a ``DeferredQueue``, and
nothing outside ``core/deferred.py`` reaches its private slots.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parents[2] / "src" / "repro"
OWNER = "core/deferred.py"
BUILDERS = {"core/resilience.py", "core/cluster.py"}
RETIRED = {"RepairQueue", "HintQueue", "RepairTask", "Hint"}


def sites(tree):
    """``(kind, line)`` for each retired definition, each
    ``DeferredQueue(...)`` call and each ``._slots`` attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            if node.name in RETIRED:
                found.append(("defines", node.lineno))
        elif isinstance(node, ast.Assign):
            found.extend(
                ("defines", node.lineno) for target in node.targets
                if isinstance(target, ast.Name) and target.id in RETIRED
            )
        elif isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", getattr(func, "attr", None))
            if name == "DeferredQueue":
                found.append(("constructs", node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr == "_slots":
            found.append(("private", node.lineno))
    return sorted(found, key=lambda site: site[1])


def violations(root):
    """``{module: [(kind, line)]}`` for each site the rules forbid."""
    found = {}
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        bad = [
            (kind, line)
            for kind, line in sites(ast.parse(path.read_text()))
            if kind == "defines"
            or (kind == "constructs" and name not in BUILDERS)
            or (kind == "private" and name != OWNER)
        ]
        if bad:
            found[name] = bad
    return found


def test_one_deferred_queue():
    assert violations(SRC) == {}


def test_both_layers_still_build_the_queue():
    for name in sorted(BUILDERS):
        kinds = {kind for kind, _ in sites(ast.parse((SRC / name).read_text()))}
        assert "constructs" in kinds, name


def test_the_lint_sees_planted_sites(tmp_path):
    (tmp_path / "core").mkdir()
    (tmp_path / "core" / "deferred.py").write_text(
        "class DeferredQueue:\n"
        "    def __len__(self):\n"
        "        return len(self._slots)\n"
    )
    (tmp_path / "core" / "cluster.py").write_text(
        "from repro.core.deferred import DeferredQueue\n"
        "hints = DeferredQueue()\n"
    )
    (tmp_path / "core" / "backup.py").write_text(
        "from repro.core import deferred\n"
        "class HintQueue:\n"
        "    pass\n"
        "queue = deferred.DeferredQueue()\n"
        "RepairTask = dict\n"
        "depth = len(queue._slots)\n"
    )
    assert violations(tmp_path) == {
        "core/backup.py": [
            ("defines", 2), ("constructs", 4), ("defines", 5), ("private", 6),
        ],
    }
