"""Lint: only ``ObjectMeta`` knows how a row records its copies.

The paper's metadata tracks each object's "location (i.e. which tiers)"
(§2.1).  How a row records that (today a set of tier names in the
``locations`` field) is known to ``core/objects.py`` alone.  Code
elsewhere in ``src/repro`` goes through ``ObjectMeta``'s copy methods
(``holds``, ``copies``, ``add_copy``, ``drop_copy``, ``drop_copies``,
``set_copies``, ``clear_copies``, ``digest_row`` and ``to_doc``'s
``with_copy`` / ``without_copy``) and never reads or writes a
``.locations`` attribute, so changing what a copy records changes one
module.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parents[2] / "src" / "repro"
OWNER = "core/objects.py"


def location_sites(tree):
    """Line numbers of every ``.locations`` attribute, read or written."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "locations"
    )


def reaching_modules(root):
    """``{module: lines}`` for each module under ``root`` with a site."""
    found = {}
    for path in sorted(root.rglob("*.py")):
        lines = location_sites(ast.parse(path.read_text()))
        if lines:
            found[path.relative_to(root).as_posix()] = lines
    return found


def test_only_objects_reaches_the_copy_record():
    outside = reaching_modules(SRC)
    outside.pop(OWNER, None)
    assert outside == {}


def test_the_owner_still_holds_the_record():
    assert OWNER in reaching_modules(SRC)


def test_the_lint_sees_a_planted_site(tmp_path):
    (tmp_path / "core").mkdir()
    (tmp_path / "core" / "objects.py").write_text(
        "class ObjectMeta:\n"
        "    def holds(self, tier):\n"
        "        return tier in self.locations\n"
    )
    (tmp_path / "core" / "instance.py").write_text(
        "def evict(meta, other):\n"
        "    if meta.holds('t'):\n"
        "        meta.locations.discard('t')\n"
        "    other.locations = set(meta.copies())\n"
        "    return {'locations': meta.copies()}\n"
    )
    found = reaching_modules(tmp_path)
    assert found.pop(OWNER) == [3]
    assert found == {"core/instance.py": [3, 4]}
