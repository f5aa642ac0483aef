"""The count of scripts/code_lines.py, on a fixed text."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

# code lines: the import, the class and def lines, the return, and the three lines of TEMPLATE (7)
TEXT = '''"""A module docstring,
on two lines."""

import os  # a trailing comment


# a comment-only line
class Thing:
    """A class docstring."""

    def method(self):
        """A function docstring,
        on two lines.
        """
        return os.sep


TEMPLATE = """first
second
third"""
'''


def test_a_fixed_text_has_seven_code_lines():
    assert code_lines.code_lines(TEXT) == 7


def test_docstrings_comments_and_blank_lines_are_not_code():
    assert code_lines.code_lines('"""Only a docstring."""\n\n# only a comment\n') == 0


def test_the_script_prints_each_module_and_the_total(tmp_path):
    package = tmp_path / "twocopy"
    package.mkdir()
    (package / "b.py").write_text(TEXT)
    (package / "a.py").write_text("x = 1\n")
    out = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)], capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == {"modules": {"a": 1, "b": 7}, "total": 8}
    assert list(json.loads(out)["modules"]) == ["a", "b"]
