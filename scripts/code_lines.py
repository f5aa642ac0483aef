"""Count the code lines of each module of the package.

    python scripts/code_lines.py [SRC]

A code line is one that holds a token other than a comment or a module,
class or function docstring; blank lines hold none.  A token that spans
several lines, such as a multi-line string that is not a docstring, makes
each of them a code line.  SRC is a ``src`` tree, this checkout's by
default; its ``twocopy/*.py`` are counted.  Prints one JSON line,
``{"modules": {name: lines}, "total": N}``, modules in name order.  Uses
only the standard library.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFINITIONS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The number of lines of ``text`` that hold a token other than a comment or a docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DEFINITIONS) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", type=Path, default=ROOT / "src", help="a src tree (default: this checkout's)")
    args = parser.parse_args()
    modules = {path.stem: code_lines(path.read_text(encoding="utf-8")) for path in sorted(args.src.glob("twocopy/*.py"))}
    print(json.dumps({"modules": modules, "total": sum(modules.values())}))


if __name__ == "__main__":
    main()
