"""Lint: the figures build Tiera deployments only through the table.

Every Tiera deployment a figure measures is a named row of
``repro.bench.sim.DEPLOYMENTS``, assembled by ``sim.build`` behind
``Trial.build`` (which refuses a row the figure does not declare).  So
``bench/figures.py`` calls no template builder, no ``TieraServer(``, no
``TierRegistry(``, no ``compile_spec(`` and no bare ``build(`` —
outside ``Trial.build`` and the named non-Tiera baselines, which
provision tiers by hand on purpose.
"""

import ast
from pathlib import Path

from repro.core import templates

FIGURES = Path(__file__).parents[2] / "src" / "repro" / "bench" / "figures.py"

BUILDERS = {
    "TieraServer", "TierRegistry", "compile_spec", "build",
    *(name for name in dir(templates) if name.endswith("_instance")),
}

#: where a builder call belongs: the table's door, and Figure 18's
#: "without control layer" stack (the application drives both tiers)
ALLOWED = {"Trial.build", "_fig18.without_control_layer"}


def builder_sites(tree, allowed=ALLOWED):
    """``(enclosing function, callee, line)`` of each builder call
    outside ``allowed``.  A method call named ``build`` (``t.build``)
    is the table's door, not a builder."""
    found = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, path + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "id", getattr(func, "attr", None))
                where = ".".join(path)
                bare = isinstance(func, ast.Name)
                if name in BUILDERS and (bare or name != "build") \
                        and where not in allowed:
                    found.append((where, name, child.lineno))
            visit(child, path)

    visit(tree, ())
    return found


def test_figures_build_through_the_table_only():
    assert builder_sites(ast.parse(FIGURES.read_text())) == []


def test_each_allowed_site_still_builds():
    """An allowance with no builder call left in it is stale."""
    sites = builder_sites(ast.parse(FIGURES.read_text()), allowed=())
    assert {where for where, _, _ in sites} == ALLOWED


def test_the_lint_sees_a_planted_site(tmp_path):
    planted = tmp_path / "figures.py"
    planted.write_text(
        "class Trial:\n"
        "    def build(self, name, seed):\n"
        "        return build(name, seed)\n"
        "def _fig18(t):\n"
        "    def without_control_layer():\n"
        "        return TierRegistry(Cluster(seed=1))\n"
        "    return t.build('write-through', 1)\n"
        "def _fig99(t):\n"
        "    sim = build('write-through', 1)\n"
        "    server = TieraServer(write_through_instance(sim.registry))\n"
        "    return repro.spec.compile_spec(SPEC, TierRegistry(sim.cluster))\n"
    )
    assert builder_sites(ast.parse(planted.read_text())) == [
        ("_fig99", "build", 9),
        ("_fig99", "TieraServer", 10),
        ("_fig99", "write_through_instance", 10),
        ("_fig99", "compile_spec", 11),
        ("_fig99", "TierRegistry", 11),
    ]
