"""Count a Python file's code lines: no blank lines, comments or docstrings.

A line counts when a token other than a comment or layout (newline, indent,
dedent) starts on it or runs across it, so each line of a multi-line string
or bracketed expression counts, and it is not part of a docstring: the string
statement that opens a module, class or function body.  This is the count
ROADMAP.md and CHANGES.md give as "code lines".

    python tests/code_lines.py src/sylvester/montecarlo.py [more files]

prints each file's count and its path, one file a line.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of the Python source ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(paths: list[str]) -> int:
    for path in paths:
        with open(path, encoding="utf-8") as file:
            print(code_lines(file.read()), path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
