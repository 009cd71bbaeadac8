"""The demos and the README's library tour keep running against the
package, and every name comes from the module that defines it.

Demos 01-04 take a few seconds together and run here as scripts, as does
the tour.  Demo 05 trains several networks (tens of seconds), so it is
not run; every name it imports from viewbench must still resolve, which
catches renames.  The package itself binds no names, so no code imports
a name (rather than a module) from it.
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
PACKAGE = ROOT / "src" / "viewbench"


def _readme_tour() -> str:
    """The python code block under the README's "Library tour" heading."""
    section = (ROOT / "README.md").read_text().split("## Library tour", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


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


def test_readme_tour_runs():
    proc = subprocess.run(
        [sys.executable, "-c", _readme_tour()],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_package_binds_no_names():
    body = ast.parse((PACKAGE / "__init__.py").read_text()).body
    assert len(body) == 1 and isinstance(body[0].value, ast.Constant), "docstring only"


def test_names_are_imported_from_their_modules():
    sources = {
        str(path.relative_to(ROOT)): path.read_text()
        for pattern in ("src/**/*.py", "tests/*.py", "demos/*.py")
        for path in ROOT.glob(pattern)
    }
    sources["README.md"] = _readme_tour()
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and (
                node.module == "viewbench" or (node.level == 1 and node.module is None)
            ):
                names = {alias.name for alias in node.names}
                assert names <= modules, f"{name} imports {sorted(names - modules)} from viewbench"
