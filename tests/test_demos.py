"""The demo scripts import only names the package still exports, and each
one runs to completion.

Each `from mimoclr... import name` in demos/*.py is resolved without
running the demo, so a removed or renamed library name fails by name here.
Each demo then runs in a subprocess, so a changed signature fails here
instead of in a walkthrough nobody ran, and must leave its temporary
directory empty."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SLOW_DEMOS = ("small_pretrain.py", "finetune_comparison.py")   # seconds each, not tenths


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


@pytest.mark.parametrize("demo", [
    pytest.param(d, id=d.name, marks=[pytest.mark.slow] if d.name in SLOW_DEMOS else [])
    for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=path)
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    assert not any(tmp_path.iterdir()), f"{demo.name} left {sorted(tmp_path.iterdir())}"
