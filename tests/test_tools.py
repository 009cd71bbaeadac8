"""Smoke runs of the measuring scripts under ``tools/`` at their smallest
sizes: each exits 0 and prints its header, one row per arm, codec or
module, and (``code_lines.py``) a total that is the sum of its rows.
"""

import os
import subprocess
import sys
from pathlib import Path

from viewbench import experiments

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    """The rows a tool printed, split on whitespace, after it exited 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "tools" / script), *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return [line.split() for line in done.stdout.splitlines()]


def test_step_cost():
    rows = _run("step_cost.py", "--runs", "1", "--iters", "2")
    assert rows[0] == ["protocol", "arm", "rows", "us/step", "us/step", "at", "1"]
    want = [("formulations", arm) for arm in experiments._ARMS]
    want += [("symmetry", arm) for arm in experiments._PROBE_ARMS]
    assert [(r[0], r[1]) for r in rows[1:]] == want
    for row in rows[1:]:
        assert len(row) == 5 and int(row[2]) >= 1
        assert float(row[3]) > 0.0 and float(row[4]) > 0.0


def test_io_cost():
    rows = _run("io_cost.py", "--runs", "1", "--scenes", "4")
    assert rows[0] == ["codec", "lines", "s/file", "us/line"]
    assert [" ".join(r[:-3]) for r in rows[1:]] == [
        "format_dataset inline", "parse_dataset inline", "format_dataset sidecar",
        "parse_dataset sidecar", "write_detections", "parse_detections", "parse_ground_truths",
    ]
    for row in rows[1:]:
        assert int(row[-3]) >= 1 and float(row[-2]) >= 0.0 and float(row[-1]) >= 0.0


def test_code_lines():
    rows = _run("code_lines.py")
    modules = sorted(p.name for p in (ROOT / "src" / "viewbench").glob("*.py"))
    assert [r[0] for r in rows[:-1]] == modules
    counts = [int(r[1].replace(",", "")) for r in rows[:-1]]
    assert rows[-1][0] == "total"
    assert int(rows[-1][1].replace(",", "")) == sum(counts) > 0
