"""Print the code lines of each ``src/unselect`` module and their total.

A code line is a line that holds a token of code: blank lines, comment
lines and the lines of module, class and function docstrings do not
count.  A string or bracket that spans lines counts every line it spans.
Standard library only::

    python3 scripts/code_lines.py [SOURCE_DIR]
"""

from __future__ import annotations

import ast
import os
import sys
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(path):
    with open(path, "rb") as fh:
        source = fh.read()
    with open(path, "rb") as fh:
        lines = {line for tok in tokenize.tokenize(fh.readline) if tok.type not in NOT_CODE
                 for line in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - docstring_lines(ast.parse(source, path)))


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "src", "unselect")
    total = 0
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            count = code_lines(os.path.join(root, name))
            total += count
            print(f"{count:6d}  {name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv)
