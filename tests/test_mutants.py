"""The table of scripts/mutants.py: each row applies to this checkout's src and names a test that exists.

The mutant runs themselves are not part of this suite: ``python scripts/mutants.py`` runs them."""

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
    path, *names = mutant.node.split("::")
    text = (REPO_ROOT / path).read_text(encoding="utf-8")
    assert names and names[-1].startswith("test_")
    for name in names:
        assert re.search(rf"^\s*(?:class|def) {name}\b", text, re.MULTILINE), f"{name} not in {path}"
