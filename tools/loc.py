"""Count the code, docstring and total lines of the Python files under a
directory.

    python3 tools/loc.py SRC

prints one line per ``*.py`` file under SRC, in path order, and a total:
``code docstring total path``.  A docstring line is a line of a module,
class or function docstring, found with ``ast``.  A comment line holds
only a comment and a blank line holds nothing but whitespace, both found
with ``tokenize``.  Every other line is a code line, so a statement that
spans several lines counts each of them.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by the module's, classes' and functions'
    docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int, int]:
    """``(code, docstring, total)`` line counts of one file's source."""
    lines = source.splitlines()
    docstrings = docstring_lines(ast.parse(source))
    # the lines that hold a token other than a comment: a line holding
    # only a comment, or only whitespace, holds none
    tokened = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                              tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
            tokened.update(range(token.start[0], token.end[0] + 1))
    code = sum(
        1 for number, text in enumerate(lines, 1)
        if text.strip() and number in tokened and number not in docstrings
    )
    return code, len(docstrings), len(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="directory to count")
    args = parser.parse_args(argv)
    totals = [0, 0, 0]
    for path in sorted(args.src.rglob("*.py")):
        counts = count(path.read_text())
        totals = [a + b for a, b in zip(totals, counts)]
        print(*counts, path.relative_to(args.src))
    print(*totals, "total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
