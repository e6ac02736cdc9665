"""benchmarks/loc.py: what counts as a line of code."""

from benchmarks import loc

FIXTURE = '''"""Module docstring,
two lines."""

import os  # a trailing comment does not uncount the line


# a comment line
class Thing:
    """Class docstring."""

    limit = 3

    def method(self, a,
               b):
        """Function docstring."""
        text = """a string that is not
        a docstring counts, every line"""
        return os.sep.join(
            [a, b, text]
        )


def bare():
    "single-quoted docstring"
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    total, code = loc.count(FIXTURE)
    assert total == 24
    # import, class, limit, def (2 lines), text (2), return (3), def bare
    assert code == 11


def test_a_tree_is_the_sum_of_its_modules(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert loc.count_tree(tmp_path) == (24 + 3, 11 + 1)
    assert loc.count_tree(tmp_path / "b.py") == (3, 1)
