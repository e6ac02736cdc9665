"""Lint: a storage service's bytes have one owner.

A tier "can be any source or sink for data with a prescribed
interface" (§2.2), so what a tier holds, and in what recency order, is
recorded once: in the service's ordered ``_data``, with its byte count
in ``_used``.  Code outside ``simcloud/services/`` goes through the
service's methods — the data path, ``touch`` / ``lru_key`` for recency,
and ``peek`` / ``contents`` / ``install`` / ``erase`` offline — and never
reaches ``_data``, ``_used`` or a tier-side ``_order`` copy of some other
object.  ``fs/rawfs.py`` is exempt: its file handles reach their own file
system's ``_data``, which is not a storage service.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parents[2] / "src" / "repro"

RECORD = {"_data", "_used", "_order"}
OWNER = "simcloud/services/"
EXEMPT = {"fs/rawfs.py"}


def foreign_reaches(tree):
    """Line numbers where a record attribute is reached through any
    object but bare ``self``."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in RECORD
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    )


def _reaching_modules():
    return {
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if foreign_reaches(ast.parse(path.read_text()))
    }


def test_only_the_services_reach_a_service_record():
    outside = {
        module for module in _reaching_modules()
        if not module.startswith(OWNER)
    }
    assert outside <= EXEMPT


def test_the_exemption_is_still_needed():
    assert EXEMPT <= _reaching_modules()


def test_the_lint_sees_foreign_reaches():
    tree = ast.parse(
        "def f(self, tier):\n"
        "    tier.service._data.pop('k')\n"
        "    tier._order.clear()\n"
        "    self.service._used -= 1\n"
        "    self._data['k'] = b''\n"
        "    return self._used\n"
    )
    assert foreign_reaches(tree) == [2, 3, 4]
