"""Acceptance gate: eight release criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines
as they happen.  Each criterion prints ``[PASS]`` or ``[FAIL]`` with the
measured numbers before asserting, so a red run still reports every
measured value.
"""

import math
import time

import numpy as np
import pytest
import yaml

from test_metrics import _fuzz_case

from viewbench.angles import circular_difference, decode, encode
from viewbench.cli import entry
from viewbench.experiments import median_comparison, symmetry_probe
from viewbench.losses import (
    JointClsOutputs,
    Target,
    classification_loss,
    geometric_classification_loss,
    joint_classification_loss,
    joint_detection_score,
)
from viewbench.metrics import Box, Detection, GroundTruth, evaluate

SEEDS = (0, 1, 2, 3, 4)


def _verdict(n, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[{status}] criterion {n}: {label}{suffix}")
    assert ok, f"criterion {n} failed: {label}{suffix}"


@pytest.fixture(scope="module")
def medians():
    start = time.perf_counter()
    med = median_comparison(SEEDS)
    return med, time.perf_counter() - start


def test_c1_codec_round_trip_and_grid_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    thetas = rng.uniform(0.0, 2.0 * math.pi, 10_000)
    worst = 0.0
    for dim in (2, 3):
        for theta in thetas:
            worst = max(worst, circular_difference(decode(encode(theta, dim)), theta))
    round_trip_ok = worst < 1e-9

    n_grid = 10**6
    step = 2.0 * math.pi / n_grid
    grid = np.arange(n_grid) * step
    grid_f = np.stack(
        [np.cos(grid - math.pi / 3.0), np.cos(grid), np.cos(grid + math.pi / 3.0)],
        axis=1,
    )
    oracle_worst = 0.0
    for _ in range(200):
        emb = encode(rng.uniform(0.0, 2.0 * math.pi), 3) + rng.normal(0.0, 0.1, 3)
        oracle_theta = grid[int(np.argmax(grid_f @ emb))]
        oracle_worst = max(oracle_worst, circular_difference(decode(emb), oracle_theta))
    oracle_ok = oracle_worst <= step
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "codec round trips and grid-oracle decode",
        round_trip_ok and oracle_ok and elapsed < 5.0,
        f"worst round trip {worst:.2e}, worst oracle gap {oracle_worst:.2e} "
        f"vs step {step:.2e}, {elapsed:.2f} s",
    )


def test_c2_gradient_suites(gradient_suites):
    loss_results = gradient_suites.loss(0)
    net_results = gradient_suites.net(0)
    elapsed = gradient_suites.seconds(0)

    counts = {}
    for r in loss_results:
        kind = r.name.split("[")[0]
        counts[kind] = counts.get(kind, 0) + 1
    kinds_ok = sorted(counts) == [
        "classification", "geometric", "joint_classification",
        "joint_regression", "regression",
    ] and all(v >= 20 for v in counts.values())
    loss_ok = all(r.passed and r.tolerance == 1e-5 for r in loss_results)
    net_ok = all(r.passed and r.tolerance == 1e-4 for r in net_results)
    worst_loss = max(r.max_rel_err for r in loss_results)
    worst_net = max(r.max_rel_err for r in net_results)
    _verdict(
        2,
        "finite-difference gradients for all losses and heads",
        kinds_ok and loss_ok and net_ok and elapsed < 60.0,
        f"{len(loss_results)} loss cases worst {worst_loss:.2e}, "
        f"{len(net_results)} net cases worst {worst_net:.2e}, {elapsed:.1f} s",
    )


def test_c3_closed_forms():
    checks = []
    for n_v in (4, 24, 360):
        loss = classification_loss(np.zeros((1, 1, n_v)), [Target(1, 0.0)])
        checks.append(abs(loss.value - math.log(n_v)) < 1e-12)

    for n_c, n_v in ((2, 4), (12, 24)):
        out = JointClsOutputs(np.zeros((1, n_c, n_v)), np.zeros(1))
        loss = joint_classification_loss(out, [Target(1, 0.0)])
        checks.append(abs(loss.value - math.log(n_c * n_v + 1)) < 1e-12)
        score = joint_detection_score(np.zeros((n_c, n_v)), 0.0, 1)
        checks.append(abs(score - n_v / (n_c * n_v + 1)) < 1e-12)

    rng = np.random.default_rng(5)
    outputs = rng.normal(0.0, 2.0, (2, 3, 24))
    targets = [Target(1, 0.3), Target(3, 4.0)]
    narrow = geometric_classification_loss(outputs, targets, sigma=1e-6)
    plain = classification_loss(outputs, targets)
    checks.append(abs(narrow.value - plain.value) < 1e-9)
    _verdict(
        3,
        "closed-form loss values (uniform logits, score shares, narrow-sigma collapse)",
        all(checks),
        f"{sum(checks)}/{len(checks)} identities hold",
    )


def test_c4_metric_oracles():
    rng = np.random.default_rng(7)
    bins = (4, 8, 16, 24)

    replay_ok = True
    for _ in range(20):
        gts, _ = _fuzz_case(rng)
        dets = [Detection(g.image_id, g.class_id, g.box, 1.0, g.azimuth) for g in gts]
        report = evaluate(gts, dets, bins=bins)
        for m in report.per_class.values():
            if m.n_gt and (m.ap != 1.0 or any(m.avp[k] != 1.0 for k in bins)):
                replay_ok = False

    fuzz_ok = True
    for _ in range(1000):
        gts, dets = _fuzz_case(rng)
        for m in evaluate(gts, dets, bins=bins).per_class.values():
            if m.n_gt and any(m.avp[k] > m.ap + 1e-12 for k in bins):
                fuzz_ok = False

    unit = Box(0.0, 0.0, 1.0, 1.0)
    far = Box(2.0, 2.0, 3.0, 3.0)
    step = 2.0 * math.pi / 24.0

    one_gt = [GroundTruth("i", 1, unit, 0.0)]
    m = evaluate(one_gt, [Detection("i", 1, unit, 0.9, 0.0)], bins=bins).per_class[1]
    hand1 = m.ap == 1.0 and m.avp[24] == 1.0
    m = evaluate(one_gt, [Detection("i", 1, unit, 0.9, step)], bins=bins).per_class[1]
    hand2 = m.ap == 1.0 and m.avp[24] == 0.0
    two_gts = [GroundTruth("i", 1, unit, 0.0), GroundTruth("i", 1, far, 0.5 * math.pi)]
    dets = [
        Detection("i", 1, unit, 0.9, 0.0),
        Detection("i", 1, Box(5.0, 5.0, 6.0, 6.0), 0.8, 1.0),
        Detection("i", 1, far, 0.7, 0.5 * math.pi),
    ]
    m = evaluate(two_gts, dets, bins=bins).per_class[1]
    expected = 0.5 + 0.5 * (2 / 3)
    hand3 = (
        abs(m.ap - expected) < 1e-12
        and abs(m.avp[24] - expected) < 1e-12
    )
    _verdict(
        4,
        "evaluation oracles (replay perfect, pose-aware never above plain, hand curves)",
        replay_ok and fuzz_ok and hand1 and hand2 and hand3,
        f"replay={replay_ok} fuzz={fuzz_ok} hand examples "
        f"{[hand1, hand2, hand3]}",
    )


def test_c5_formulation_ordering(medians):
    med, elapsed = medians
    gap = med["cls"] - med["reg2d"]
    ok = (
        med["cls"] > med["reg3d"] > med["reg2d"]
        and gap >= 0.03
        and elapsed < 600.0
    )
    _verdict(
        5,
        "median mAVP24 ranks classification > 3D regression > 2D regression",
        ok,
        f"cls={med['cls']:.4f} reg3d={med['reg3d']:.4f} reg2d={med['reg2d']:.4f} "
        f"gap={gap:.4f}, {elapsed:.0f} s for {len(SEEDS)} seeds",
    )


def test_c6_joint_training_helps(medians):
    med, elapsed = medians
    ok = med["joint_cls"] > med["cls"] and elapsed < 600.0
    _verdict(
        6,
        "jointly trained detection+pose beats the independent pipeline",
        ok,
        f"joint={med['joint_cls']:.4f} vs independent={med['cls']:.4f}",
    )


def test_c7_symmetry_ambiguity():
    probe = symmetry_probe(0)
    reg_ok = (
        abs(probe.reg3d_accuracy - 0.5) <= 0.05
        and abs(probe.reg2d_accuracy - 0.5) <= 0.05
    )
    cls_ok = probe.pair_mass >= 0.8
    _verdict(
        7,
        "two-fold symmetry: regressors sit at the 50% paired ceiling, "
        "classifier mass covers both candidate bins",
        reg_ok and cls_ok,
        f"reg3d={probe.reg3d_accuracy:.3f} reg2d={probe.reg2d_accuracy:.3f} "
        f"pair_mass={probe.pair_mass:.3f}",
    )


def _run_pipeline(root, monkeypatch):
    """generate -> train -> predict -> eval with paths relative to root,
    returning every artifact's bytes keyed by relative path."""
    root.mkdir()
    monkeypatch.chdir(root)
    gen_cfg = root / "gen.yaml"
    gen_cfg.write_text(
        yaml.safe_dump(
            {
                "seed": 5,
                "dataset": {
                    "feature_dim": 8,
                    "noise_sigma": 0.05,
                    "n_train_scenes": 6,
                    "n_test_scenes": 3,
                    "classes": [{"class_id": 1}, {"class_id": 2}],
                },
            }
        )
    )
    train_cfg = root / "train.yaml"
    train_cfg.write_text(
        yaml.safe_dump(
            {
                "seed": 5,
                "data": "bench/manifest.json",
                "net": {"trunk_widths": [16], "head": "cls"},
                "train": {
                    "batch_size": 16,
                    "positive_fraction": 1.0,
                    "total_iters": 120,
                    "decay_at": [80],
                    "log_every": 40,
                },
                "loss": {"kind": "classification"},
            }
        )
    )
    assert entry(["generate", "--config", "gen.yaml", "--out", "bench"]) == 0
    assert entry(["train", "--config", "train.yaml", "--out", "run"]) == 0
    assert (
        entry(["predict", "run/checkpoint.txt", "bench/manifest.json", "--out", "dets.txt"])
        == 0
    )
    assert entry(["eval", "bench/test_gt.txt", "dets.txt", "--out", "report.json"]) == 0
    artifacts = {}
    for rel in (
        "bench/manifest.json", "bench/train_data.txt", "bench/test_data.txt",
        "bench/train_gt.txt", "bench/test_gt.txt",
        "run/checkpoint.txt", "run/train_log.txt", "dets.txt", "report.json",
    ):
        artifacts[rel] = (root / rel).read_bytes()
    return artifacts


def test_c8_reruns_byte_identical(tmp_path, monkeypatch):
    first = _run_pipeline(tmp_path / "a", monkeypatch)
    second = _run_pipeline(tmp_path / "b", monkeypatch)
    mismatched = [rel for rel in first if first[rel] != second[rel]]
    _verdict(
        8,
        "generate, train, predict, and eval are byte-identical on rerun",
        not mismatched,
        f"{len(first)} artifacts compared"
        + (f"; mismatches: {mismatched}" if mismatched else ""),
    )
