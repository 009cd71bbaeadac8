"""Microseconds per training step of every experiment arm, on one BLAS
thread.

    python tools/step_cost.py [--runs N] [--iters K] [--seed S]

For each arm of ``experiments._ARMS``, as ``compare_formulations`` trains
it (its default width, ``TrainConfig()``), and for the symmetry probe's
three arms (its default width and data, the probe's ``TrainConfig``), it
trains the arm alone through
``experiments.train_arms`` for K iterations, at the protocol's batch size
and again at batch size 1, and prints the best of N runs divided by K.
A run counts everything ``net.train`` does, set-up and the probe-batch
log included, so K should be large enough that the per-step cost
dominates.  Batch size 1 leaves only the fixed cost of a step; the
protocol's batch size adds the arithmetic that grows with the rows.
Run from the repository root with ``src`` on ``PYTHONPATH``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before NumPy loads its BLAS

import argparse  # noqa: E402
import inspect  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402

from viewbench import experiments  # noqa: E402
from viewbench.net import TrainConfig, build_pool  # noqa: E402
from viewbench.synthetic import default_benchmark  # noqa: E402


def step_us(train_ds, pool, arm, seed, width, tcfg, runs) -> float:
    """Best of ``runs`` trainings of ``arm`` alone, per iteration, in µs."""
    best = math.inf
    for _ in range(runs):
        start = time.perf_counter()
        experiments.train_arms(train_ds, pool, (arm,), seed, width, tcfg)
        best = min(best, time.perf_counter() - start)
    return best / tcfg.total_iters * 1e6


def _defaults(fn) -> dict:
    return {p.name: p.default for p in inspect.signature(fn).parameters.values()}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=5, help="runs per cell, best kept")
    ap.add_argument("--iters", type=int, default=1000, help="iterations per run")
    ap.add_argument("--seed", type=int, default=0, help="benchmark and arm seed")
    args = ap.parse_args(argv)
    train_ds, _ = default_benchmark(args.seed)
    probe = _defaults(experiments.symmetry_probe)
    probe_ds = experiments._ambiguous_dataset(args.seed, probe["noise_sigma"], probe["n_scenes"])
    protocols = (
        ("formulations", train_ds, experiments._ARMS,
         _defaults(experiments.compare_formulations)["width"], TrainConfig(total_iters=args.iters)),
        ("symmetry", probe_ds, experiments._PROBE_ARMS, probe["width"],
         experiments._probe_tcfg(args.iters)),
    )
    print(f"{'protocol':<13} {'arm':<10} {'rows':>5} {'us/step':>9} {'us/step at 1':>13}")
    for name, ds, arms, width, tcfg in protocols:
        pool = build_pool(ds)
        for arm in arms:
            full = step_us(ds, pool, arm, args.seed, width, tcfg, args.runs)
            one = step_us(ds, pool, arm, args.seed, width, replace(tcfg, batch_size=1), args.runs)
            rows = experiments._arm_tcfg(experiments._ARMS[arm][1], tcfg, 0).batch_size
            print(f"{name:<13} {arm:<10} {rows:>5} {full:>9.1f} {one:>13.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
