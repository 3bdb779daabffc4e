"""Count the code lines of Python modules.

    python3 tools/code_lines.py [PATH...]

Prints each module's count and the total, for every ``.py`` file given or
found under a directory given (default ``src/florasim``, relative to the
working directory, so run it from the repository root). A code line is a
non-blank line that is neither a comment nor part of a docstring: docstrings
are found with ``ast`` (the leading string of a module, class or function),
comments and blank lines with ``tokenize``. Every other line a token covers
counts, so each line of a multi-line statement or of a string that is not a
docstring is a code line.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

# Tokens that make no line a code line on their own.
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in a module's source text."""
    text = source.splitlines()
    covered = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            covered.update(range(token.start[0], token.end[0] + 1))
    covered -= _docstring_lines(ast.parse(source))
    return sum(1 for line in covered if text[line - 1].strip())


def main(argv: list[str]) -> int:
    total = 0
    for path in map(Path, argv or ["src/florasim"]):
        for module in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            count = code_lines(module.read_text(encoding="utf-8"))
            total += count
            print(f"{count:6d}  {module}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
