"""The README against the package: its Library example runs, it names every export, and it quotes the oracle's
budgets and the tolerance table."""

import ast
import math
import re
from pathlib import Path

import twocopy
from twocopy import linalg, measures

REPO_ROOT = Path(__file__).resolve().parent.parent
README = (REPO_ROOT / "README.md").read_text(encoding="utf-8")


def test_library_example_runs():
    example = re.search(r"^## Library\n\n```python\n(.*?)^```$", README, re.DOTALL | re.MULTILINE)
    assert example, "no python block under '## Library'"
    exec(compile(example.group(1), "README.md", "exec"), {})


def test_every_export_is_documented():
    tree = ast.parse(Path(twocopy.__file__).read_text(encoding="utf-8"))
    exports = {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
               for alias in node.names}
    prose = re.sub(r"^```.*?^```$", "", README, flags=re.DOTALL | re.MULTILINE)
    spans = " ".join(re.findall(r"`([^`\n]+)`", prose))
    missing = sorted(name for name in exports if not re.search(rf"\b{name}\b", spans))
    assert not missing, f"exported but not named in backticks in README.md: {missing}"


def test_oracle_paragraph_quotes_its_budgets():
    paragraph = re.search(r"^\* `twocopy\.measures`:.*?(?=^\* )", README, re.DOTALL | re.MULTILINE)
    assert paragraph, "no `twocopy.measures` paragraph"
    for name in ("STARTS", "FINISH_STALL", "FINISH_ITERATIONS"):
        quoted = re.findall(rf"`{name} = (\d+)`", paragraph.group(0))
        assert quoted == [str(getattr(measures, name))], f"{name}: README quotes {quoted}"


def test_conventions_quote_the_tolerance_table():
    conventions = re.search(r"^## Conventions\n(.*?)(?=^## |\Z)", README, re.DOTALL | re.MULTILINE)
    assert conventions, "no Conventions section"
    for name in ("ATOL", "EIGENVALUE_FLOOR", "PROBABILITY_ATOL", "IMAG_ATOL"):
        quoted = re.findall(rf"`{name} = ([-+.e\d]+)`", conventions.group(1))
        value = getattr(linalg, name)
        assert len(quoted) == 1 and math.isclose(float(quoted[0]), value, rel_tol=1e-12), (
            f"{name} = {value!r}: README quotes {quoted}"
        )
