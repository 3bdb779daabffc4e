"""tools/code_lines.py: which lines of a module are code lines."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Seven code lines: the import, the def, both lines of the bracketed sum, both
# lines of the assigned string and the return. The docstrings, the comment
# line and the blank lines are not code.
SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment leaves its line a code line


# a comment alone on its line
def f(x):
    """A function's docstring."""
    total = (x +
             1)
    text = """a string that is
    not a docstring"""
    return total, text, os
'''


def test_counts_statements_and_strings_but_not_docstrings_comments_or_blanks():
    assert code_lines.code_lines(SOURCE) == 7


def test_prints_each_modules_count_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     7  {tmp_path / 'a.py'}",
        f"     1  {tmp_path / 'b.py'}",
        "     8  total",
    ]
