"""Code size as a budget: ``benchmarks/loc.py`` code lines, held to a file.

``code_budget.json`` next to this module holds the code lines (blank
lines, comments and docstrings excluded; see ``benchmarks/loc.py``) of
all of ``src/repro``, of each of its packages, and of each module over
``MODULE_FLOOR`` code lines.  Any count above its budget fails; a module
the file does not name is budgeted at ``MODULE_FLOOR``.

The ratchet is the cost budget's: a change that shrinks a count lowers
its budget, and one that grows a count raises the budget in the same
commit and says why.  Rewrite the file from the tree with ``python -m
tests.bench.test_code_budget`` at the repository root.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

from benchmarks.loc import count_tree

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
BUDGET = Path(__file__).with_name("code_budget.json")

#: modules with more code lines than this get a line of their own
MODULE_FLOOR = 400


def measure() -> Dict[str, Dict[str, int]]:
    """Code lines of ``src/repro``, its packages, and its big modules."""
    packages = {"repro": count_tree(SRC)[1]}
    for path in sorted(SRC.iterdir()):
        if (path / "__init__.py").is_file():
            packages[f"repro.{path.name}"] = count_tree(path)[1]
    modules = {}
    for path in sorted(SRC.rglob("*.py")):
        code = count_tree(path)[1]
        if code > MODULE_FLOOR:
            modules[path.relative_to(SRC.parent).as_posix()] = code
    return {"packages": packages, "modules": modules}


def over_budget(counts, budget) -> list:
    """``name: count > budget`` for each count above its budget; a
    package the budget does not name is over, a module is held to
    ``MODULE_FLOOR``."""
    floors = {"packages": float("-inf"), "modules": MODULE_FLOOR}
    return [
        f"{name}: {value} > {limit}"
        for kind, floor in floors.items()
        for name, value in counts[kind].items()
        for limit in [budget[kind].get(name, floor)]
        if value > limit
    ]


def test_the_check_sees_a_rise():
    budget = {"packages": {"repro": 10}, "modules": {"repro/a.py": 500}}
    fits = {"packages": {"repro": 10}, "modules": {"repro/a.py": 450}}
    assert over_budget(fits, budget) == []
    grown = {
        "packages": {"repro": 11, "repro.new": 1},
        "modules": {"repro/a.py": 501, "repro/b.py": MODULE_FLOOR + 1},
    }
    assert over_budget(grown, budget) == [
        "repro: 11 > 10",
        "repro.new: 1 > -inf",
        "repro/a.py: 501 > 500",
        f"repro/b.py: {MODULE_FLOOR + 1} > {MODULE_FLOOR}",
    ]


def test_no_count_exceeds_its_budget():
    budget = json.loads(BUDGET.read_text())
    assert over_budget(measure(), budget) == []


if __name__ == "__main__":
    BUDGET.write_text(json.dumps({
        "command": "python benchmarks/loc.py <path>",
        "module_floor": MODULE_FLOOR,
        **measure(),
    }, indent=2) + "\n")
    print(f"wrote {BUDGET}")
