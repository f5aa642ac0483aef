"""The table of scripts/mutants.py: each row applies to this checkout's src and names a test that exists;
and its verdict, which counts a mutant killed only when its test fails on an assertion.

The mutant runs themselves are not part of this suite: ``python scripts/mutants.py`` runs them.  The
verdict is checked on canned pytest output."""

import importlib.util
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("mutants", REPO_ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)

ROWS = {m.name: m for m in mutants.MUTANTS}


def test_each_row_has_its_own_name():
    assert len(ROWS) == len(mutants.MUTANTS)


@pytest.mark.parametrize("mutant", ROWS.values(), ids=ROWS.keys())
def test_each_old_text_occurs_exactly_once_in_its_file(mutant):
    assert (REPO_ROOT / "src" / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", ROWS.values(), ids=ROWS.keys())
def test_each_mutated_file_still_compiles(mutant):
    # a row that breaks the syntax would stop the mutant run at its import, not fail its node
    path = REPO_ROOT / "src" / mutant.file
    compile(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new), str(path), "exec")


@pytest.mark.parametrize("mutant", ROWS.values(), ids=ROWS.keys())
def test_each_node_names_a_test_that_exists(mutant):
    path, *names = re.sub(r"\[.*\]$", "", mutant.node).split("::")  # a parameter id names no definition
    text = (REPO_ROOT / path).read_text(encoding="utf-8")
    assert names and names[-1].startswith("test_")
    for name in names:
        assert re.search(rf"^\s*(?:class|def) {name}\b", text, re.MULTILINE), f"{name} not in {path}"


# short-summary lines as `pytest -vv -rfE` prints them, one per way a test can end
ASSERTED = {
    "assert-with-message": "FAILED tests/t.py::test_a - AssertionError: one is not two\nassert 1 == 2",
    "rewritten-assert": "FAILED tests/t.py::test_a - assert not [1]",
    "numpy-testing": "FAILED tests/t.py::test_a - AssertionError: \nNot equal to tolerance rtol=1e-07, atol=0",
    "pytest-fail": "FAILED tests/t.py::test_a - Failed: explicit",
    "did-not-raise": "FAILED tests/t.py::test_a - Failed: DID NOT RAISE <class 'ValueError'>",
    "hypothesis": "FAILED tests/t.py::test_a - assert 5 < 5\nFalsifying example: test_a(\n    n=5,\n)",
    "dash-in-parameter": "FAILED tests/t.py::test_a[c - d] - assert False",
}
CRASHED = {
    "linalg-error": "FAILED tests/t.py::test_a - numpy.linalg.LinAlgError: SVD did not converge",
    "type-error": "FAILED tests/t.py::test_a - TypeError: unhashable type: 'list'",
    "overflow-error": "FAILED tests/t.py::test_a - OverflowError: cannot convert float infinity to integer",
    "fixture-error": "ERROR tests/t.py::test_a - RuntimeError: fixture broke",
    "assertion-beside-an-error": "FAILED tests/t.py::test_a - assert False\nERROR tests/t.py::test_b - KeyError: 'x'",
    "no-summary-line": "",
}


def run_output(summary: str) -> str:
    return ("tests/t.py::test_a FAILED\n\n=================== FAILURES ===================\n"
            "=========================== short test summary info ============================\n"
            f"{summary}\n=================== 1 failed in 0.10s ====================\n")


@pytest.mark.parametrize("summary", ASSERTED.values(), ids=ASSERTED.keys())
def test_a_node_that_fails_on_an_assertion_kills(summary):
    assert mutants.verdict(1, run_output(summary)) == "killed"


@pytest.mark.parametrize("summary", CRASHED.values(), ids=CRASHED.keys())
def test_a_node_that_fails_on_another_exception_crashed(summary):
    assert mutants.verdict(1, run_output(summary)) == "crashed"


def test_a_node_that_passes_survives():
    assert mutants.verdict(0, "tests/t.py::test_a PASSED\n=================== 1 passed in 0.10s ===================\n") == "survived"
