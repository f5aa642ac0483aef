"""List the statements of src/twocopy that the tier-1 tests never run.

    python scripts/untested_lines.py

Runs ``pytest tests`` in this process under ``sys.settrace`` and prints each
statement of ``src/twocopy`` that no test ran, as ``file:line: text``, in
file and line order.  Statements are found with ``ast``; a docstring is not
one.  A compound statement (``if``, ``def``, ``try``...) counts as run when
a line of its header or decorators does, a simple one when any of its lines
does.  Lines run only in a child process, such as one a test starts with
``subprocess``, are not seen, so they are listed as never run.  pytest's
own output goes to stderr.  The last line on stdout is JSON: the number of
statements, how many never ran and the wall time in seconds.  Uses only
the standard library and pytest; exits with pytest's exit code.
"""

from __future__ import annotations

import ast
import contextlib
import json
import os
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twocopy"
DEFINITIONS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def statements(path: Path) -> dict[int, range]:
    """Each statement's line and the lines whose execution shows that it ran."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {
        id(node.body[0])
        for node in ast.walk(tree)
        if isinstance(node, DEFINITIONS) and ast.get_docstring(node, clean=False) is not None
    }
    spans = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in docstrings:
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        spans[node.lineno] = range(first, last + 1)
    return spans


def main() -> int:
    start = time.perf_counter()
    spans = {str(path): statements(path) for path in sorted(PACKAGE.glob("*.py"))}
    hits: dict[str, set[int]] = {name: set() for name in spans}

    def trace_lines(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename in hits else None

    # the tier-1 command's PYTHONPATH, for this process and the tests' child processes
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    os.chdir(ROOT)
    import pytest

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = pytest.main(["tests", "-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    unrun = 0
    for name, file_spans in spans.items():
        lines = Path(name).read_text(encoding="utf-8").splitlines()
        for lineno, span in sorted(file_spans.items()):
            if hits[name].isdisjoint(span):
                unrun += 1
                print(f"{Path(name).relative_to(ROOT)}:{lineno}: {lines[lineno - 1].strip()}")
    total = sum(map(len, spans.values()))
    print(json.dumps({"statements": total, "unexecuted": unrun, "wall_s": round(time.perf_counter() - start, 1)}))
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
