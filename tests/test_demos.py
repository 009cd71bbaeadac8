"""The demos keep running against the package.

Demos 01-04 take a few seconds together and run here as scripts.  Demo 05
trains several networks (tens of seconds), so it is not run; every name
it imports from viewbench must still resolve, which catches renames.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("0[1-4]_*.py")))
def test_demo_runs(name):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        cwd=DEMOS, env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_demo_05_imports_resolve():
    tree = ast.parse((DEMOS / "05_train_and_compare.py").read_text())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.startswith("viewbench")
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
