"""The benchmark's workloads, each one seeded call into viewbench.

A workload is prepared (inputs written, nothing timed) and then run once; its
result is reduced to a digest and checked for plausibility.  Only the
standard library is imported here at module level, so that a worker can time
the import of viewbench itself.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import tempfile
from pathlib import Path

# Iterations of the symmetry probe: its default of 20000 cut until one run
# lasts about as long as one run of ``formulations``; the probe still reaches
# the 0.5 regression ceiling and a pair mass near 1 at this length.
SYMMETRY_ITERS = 4000

# The README CLI path at a size where generation and text I/O dominate.
# Training is short, but long enough (about a second) that its throughput
# is not lost in timer noise.
PIPELINE_SCENES = 2500
PIPELINE_TRAIN = {
    "net": {"trunk_widths": [64], "head": "joint_cls"},
    "train": {"total_iters": 1000, "decay_at": [700]},
    "loss": {"kind": "joint_classification"},
}


def _float_digest(result) -> tuple[str, dict]:
    fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    text = type(result).__name__ + "(" + ", ".join(
        f"{k}={v:.17g}" for k, v in fields.items()) + ")"
    return hashlib.sha256(text.encode()).hexdigest(), fields


def _problems_in_range(values: dict, limits: dict) -> list[str]:
    out = []
    for key, (lo, hi) in limits.items():
        v = values[key]
        if not (math.isfinite(v) and lo <= v <= hi):
            out.append(f"{key}={v!r} outside [{lo}, {hi}]")
    return out


class Formulations:
    """``experiments.compare_formulations(seed)`` under its default protocol."""

    def __init__(self, seed: int, tmp_root: Path):
        from viewbench import experiments

        self.experiments = experiments
        self.seed = seed

    def run(self, span):
        return self.experiments.compare_formulations(self.seed)

    def digest(self, result) -> tuple[str, list[str]]:
        d, fields = _float_digest(result)
        return d, _problems_in_range(fields, {k: (0.0, 1.0) for k in fields})

    def cleanup(self) -> None:
        pass


class Symmetry(Formulations):
    """``experiments.symmetry_probe(seed)`` at ``SYMMETRY_ITERS`` iterations."""

    def run(self, span):
        return self.experiments.symmetry_probe(self.seed, iters=SYMMETRY_ITERS)

    def digest(self, result) -> tuple[str, list[str]]:
        d, fields = _float_digest(result)
        # at most one of each antipodal pair of queries can score
        return d, _problems_in_range(fields, {
            "reg3d_accuracy": (0.0, 0.5),
            "reg2d_accuracy": (0.0, 0.5),
            "pair_mass": (0.0, 1.0),
        })


class Pipeline:
    """The README CLI path, in-process through ``viewbench.cli.entry`` in a
    fresh temporary directory: generate, train, predict, eval, gradcheck."""

    def __init__(self, seed: int, tmp_root: Path):
        import yaml
        from viewbench import cli

        self.cli = cli
        self.seed = seed
        self.dir = Path(tempfile.mkdtemp(prefix="pipeline-", dir=tmp_root))
        gen = {"seed": seed,
               "dataset": {"n_train_scenes": PIPELINE_SCENES, "n_test_scenes": PIPELINE_SCENES}}
        train = {"seed": seed, "data": "bench/manifest.json", **PIPELINE_TRAIN}
        (self.dir / "gen.yaml").write_text(yaml.safe_dump(gen))
        (self.dir / "train.yaml").write_text(yaml.safe_dump(train))
        self.steps = (
            ("generate", ["generate", "--config", "gen.yaml", "--out", "bench"]),
            ("train", ["train", "--config", "train.yaml", "--out", "run"]),
            ("predict", ["predict", "run/checkpoint.txt", "bench/manifest.json",
                         "--out", "dets.txt"]),
            ("eval", ["eval", "bench/test_gt.txt", "dets.txt", "--bins", "4,8,16,24",
                      "--out", "report.json"]),
            ("gradcheck", ["gradcheck", "--seed", str(seed)]),
        )

    def run(self, span):
        codes = {}
        cwd = os.getcwd()
        os.chdir(self.dir)
        try:
            for name, argv in self.steps:
                with span(f"cli.{name}"):
                    codes[name] = self.cli.entry(argv)
        finally:
            os.chdir(cwd)
        return codes

    def digest(self, codes) -> tuple[str, list[str]]:
        h = hashlib.sha256()
        h.update(json.dumps(codes, sort_keys=True).encode())
        for path in sorted(p for p in self.dir.rglob("*") if p.is_file()):
            h.update(path.relative_to(self.dir).as_posix().encode() + b"\0")
            h.update(hashlib.sha256(path.read_bytes()).digest())
        problems = [f"{k} exited {v}" for k, v in codes.items() if v != 0]
        if not problems:
            report = json.loads((self.dir / "report.json").read_text())
            problems = _problems_in_range(
                {"mean_ap": report["mean_ap"],
                 **{f"mean_avp{k}": v for k, v in report["mean_avp"].items()}},
                {k: (0.0, 1.0) for k in ["mean_ap"] + [f"mean_avp{k}" for k in (4, 8, 16, 24)]},
            )
        return h.hexdigest(), problems

    def cleanup(self) -> None:
        import shutil

        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {"formulations": Formulations, "symmetry": Symmetry, "pipeline": Pipeline}


def no_span(name: str):
    return contextlib.nullcontext()
