"""Byte-for-byte comparison of CLI output against the committed golden reports.

``tests/golden`` holds, for every bundled config, the default table output
(``<name>.txt``) and the ``--format json`` output (``<name>.json``), plus
the ``--list-scenarios`` listing.  The files are never regenerated: a
refactor that changes a byte of a report fails here.  The JSON reports are
also checked against ``bench/reference.py``, which rebuilds every state
without importing twocopy.
"""

import json
from pathlib import Path

import pytest

import twocopy
from twocopy.cli import main

from conftest import BENCH, load_bench_module

REPO_ROOT = Path(__file__).resolve().parent.parent
GOLDEN = REPO_ROOT / "tests" / "golden"
BUNDLED = sorted((REPO_ROOT / "scenarios").glob("*.json"))
CASES = [(path, fmt) for path in BUNDLED for fmt in ("txt", "json")]


def test_every_bundled_config_has_golden_reports():
    assert {p.name for p in GOLDEN.iterdir()} == {
        f"{path.stem}.{fmt}" for path, fmt in CASES
    } | {"list-scenarios.txt"}


@pytest.mark.parametrize("path,fmt", CASES, ids=lambda x: getattr(x, "stem", x))
def test_report_matches_golden(path, fmt, capsys):
    argv = [str(path)] + (["--format", "json"] if fmt == "json" else [])
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{path.stem}.{fmt}").read_text()


def test_list_scenarios_matches_golden(capsys):
    assert main(["--list-scenarios"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "list-scenarios.txt").read_text()


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_golden_json_agrees_with_the_independent_reference(path, monkeypatch):
    # bench/run.py imports its sibling modules by name
    monkeypatch.syspath_prepend(str(BENCH))
    run, reference = load_bench_module("run"), load_bench_module("reference")
    doc = json.loads(path.read_text())
    golden = (GOLDEN / f"{path.stem}.json").read_text().removesuffix("\n")
    assert run.check_report(twocopy, doc, golden, reference.expected(doc), doc.get("seed", 0)) == ([], False)
