"""Seconds per file and microseconds per line of the record codecs, at
the sizes of the benchmark's ``pipeline`` workload.

    python tools/io_cost.py [--runs N] [--scenes K] [--seed S]

Makes the train and test splits of ``default_benchmark(S, K, K)``, the
2,500-scene splits that ``viewbench generate`` makes for the pipeline at
its defaults, and times, best of N runs each:

- ``format_dataset`` of the train split, with inline features and without
  (the sidecar form), and ``parse_dataset`` of each file as
  ``read_benchmark`` reads it, line by line from disk;
- ``write_detections`` and ``parse_detections`` of one detection per
  (proposal, class) of the test split, the size of the file that
  ``viewbench predict`` writes (seeded random scores and azimuths stand in
  for a net's);
- ``parse_ground_truths`` of the test split's ground-truth file.

Each row prints the file's data lines, the best time and that time per
line.  Files go to a temporary directory, removed at the end.  Run from
the repository root with ``src`` on ``PYTHONPATH``.
"""

import argparse
import math
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from viewbench import records
from viewbench.experiments import compose_detections
from viewbench.synthetic import default_benchmark


def best_s(fn, runs: int) -> float:
    """Best of ``runs`` calls of ``fn``, in seconds."""
    best = math.inf
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _data_lines(path: Path) -> int:
    return sum(1 for _ in records._data_lines(records.read_lines(path)))


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=5, help="runs per row, best kept")
    ap.add_argument("--scenes", type=int, default=2500, help="scenes per split")
    ap.add_argument("--seed", type=int, default=0, help="benchmark seed")
    args = ap.parse_args(argv)
    train, test = default_benchmark(args.seed, args.scenes, args.scenes)
    specs = train.class_specs
    rng = np.random.default_rng(args.seed)
    n_classes = len(specs)
    dets = compose_detections(
        test, rng.random((test.n_samples, n_classes)),
        rng.uniform(0.0, 2 * np.pi, (test.n_samples, n_classes)),
    )
    print(f"{'codec':<28} {'lines':>7} {'s/file':>8} {'us/line':>8}")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        rows = []
        for form, inline in (("inline", True), ("sidecar", False)):
            data = out / f"{form}.txt"
            data.write_text(records.format_dataset(train, inline))
            features = None if inline else train.features()
            rows += [
                (f"format_dataset {form}", data,
                 lambda inline=inline: records.format_dataset(train, inline)),
                (f"parse_dataset {form}", data,
                 lambda data=data, features=features: records.parse_dataset(
                     records.read_lines(data), specs, "train", args.seed, features=features,
                     n_proposals=train.n_samples)),
            ]
        det_path, gt_path = out / "dets.txt", out / "test_gt.txt"
        records.write_detections(det_path, dets)
        gt_path.write_text(records.format_ground_truths(test.ground_truths()))
        rows += [
            ("write_detections", det_path, lambda: records.write_detections(det_path, dets)),
            ("parse_detections", det_path,
             lambda: records.parse_detections(records.read_lines(det_path))),
            ("parse_ground_truths", gt_path,
             lambda: records.parse_ground_truths(records.read_lines(gt_path))),
        ]
        for name, path, fn in rows:
            lines = _data_lines(path)
            s = best_s(fn, args.runs)
            print(f"{name:<28} {lines:>7} {s:>8.3f} {s / lines * 1e6:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
