"""The package's import layers: each module imports from the package only the modules below it."""

import ast
from pathlib import Path

import pytest

import twocopy

PACKAGE = Path(twocopy.__file__).resolve().parent
# the package modules each module may import from; __init__ re-exports them all
ALLOWED = {
    "linalg": set(),
    "states": {"linalg"},
    "measures": {"linalg"},
    "protocol": {"linalg", "measures", "states"},
    "scenarios": {"linalg", "measures", "protocol", "states"},
    "cli": {"protocol", "scenarios", "states"},
}


def package_imports(module: str) -> set[str]:
    """The modules named by the ``from .x import`` statements of ``module``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1}


def test_every_module_has_a_layer():
    assert sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__") == sorted(ALLOWED)


@pytest.mark.parametrize("module", ALLOWED)
def test_module_imports_only_its_allowed_layers(module):
    assert package_imports(module) <= ALLOWED[module]
