"""The demo scripts only import names the package still exports.

Each `from mimoclr... import name` in demos/*.py is resolved without
running the demo, so a removed or renamed library name fails here instead
of in a walkthrough nobody ran."""

import ast
import importlib
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def mimoclr_imports(path):
    """(module, name) for every `from mimoclr... import name` in a file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [(node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "mimoclr"
            for alias in node.names]


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    imports = mimoclr_imports(demo)
    assert imports, f"{demo.name} imports nothing from mimoclr"
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{demo.name}: {module}.{name}"
