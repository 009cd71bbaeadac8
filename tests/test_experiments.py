"""The one mapping from a head's prediction to scored, posed detections,
and the one arm runner both experiment protocols train through.

``net.predict`` gives every head's score and azimuth per hypothesis;
``pose_angles`` hands them to ``viewbench predict``, and the protocols
read them off the prediction.  A classified azimuth must equal
``bin_center`` of its bin bit for bit and the scores must be the head's
own detection scores (1 for pose-only heads).
``compose_detections`` must give the detections of reading one NumPy
scalar per (proposal, class).  ``train_arms`` must give every arm of
both protocols the training config that protocol trained it under, and
``arm_predictions`` one prediction per arm, the same on every rerun.
"""

import math
from types import SimpleNamespace

import numpy as np

from test_codec_equivalence import dataset_records, detection_rows

from viewbench import experiments
from viewbench.angles import bin_center
from viewbench.experiments import compose_detections, pose_angles
from viewbench.losses import joint_detection_scores, softmax
from viewbench.metrics import Detection
from viewbench.net import NetConfig, TrainConfig, _decode_grid, forward, init_params, predict
from viewbench.synthetic import default_class_specs, generate

HEADS = ("reg", "cls", "joint_reg", "joint_cls")


def _cfg(head):
    return NetConfig(input_dim=3, trunk_widths=(5,), head=head, n_classes=2, n_bins=8, seed=1)


def test_bin_centres_equal_bin_center_bitwise():
    """Row v of an identity head has its argmax at bin v."""
    for n_bins in range(2, 401):
        cfg = NetConfig(input_dim=n_bins, trunk_widths=(), head="cls", n_classes=1,
                        n_bins=n_bins)
        params = init_params(cfg)
        params.layers["head"].w[:] = np.eye(n_bins)
        _, angles = pose_angles(predict(params, cfg, np.eye(n_bins)))
        expected = [bin_center(v, n_bins) for v in range(1, n_bins + 1)]
        assert angles[:, 0].tolist() == expected, n_bins


def test_scores_per_head():
    x = np.random.default_rng(0).normal(size=(6, 3))
    for head in HEADS:
        cfg = _cfg(head)
        params = init_params(cfg)
        out = forward(params, cfg, x)
        scores, angles = pose_angles(predict(params, cfg, x))
        assert scores.shape == angles.shape == (6, 2), head
        if head == "joint_reg":
            np.testing.assert_array_equal(scores, softmax(out.det)[:, 1:])
        elif head == "joint_cls":
            np.testing.assert_array_equal(scores, joint_detection_scores(out))
        else:
            assert np.all(scores == 1.0), head
        if head in ("reg", "joint_reg"):
            emb = out.pose if head == "joint_reg" else out
            np.testing.assert_array_equal(angles, _decode_grid(emb))


def test_empty_batch_for_every_head():
    for head in HEADS:
        cfg = _cfg(head)
        scores, angles = pose_angles(predict(init_params(cfg), cfg, np.zeros((0, 3))))
        assert scores.shape == angles.shape == (0, 2), head


def _indexed_compose(ds, scores, angles, floor):
    """compose_detections reading one NumPy scalar per (proposal, class)."""
    dets = []
    row = 0
    for scene in dataset_records(ds).scenes:
        for p in scene.proposals:
            for c in range(scores.shape[1]):
                if scores[row, c] >= floor:
                    dets.append(Detection(scene.image_id, c + 1, p.box,
                                          float(scores[row, c]), float(angles[row, c])))
            row += 1
    return dets


def test_compose_detections_equals_indexed_form():
    ds = generate(3, 20, default_class_specs(0, feature_dim=4))
    rng = np.random.default_rng(2)
    scores = rng.random((ds.n_samples, 4))
    scores[::7, 1] = np.nan  # never at or above a floor
    scores[::5, 2] = 0.5
    angles = rng.random((ds.n_samples, 4)) * 7.0 - 0.5
    for dtype in (np.float64, np.float32):
        for floor in (0.0, 0.5, 0.9, -math.inf):
            s, a = scores.astype(dtype), angles.astype(dtype)
            got = detection_rows(compose_detections(ds, s, a, floor=floor))
            want = _indexed_compose(ds, s, a, floor)
            assert [(d.image_id, d.class_id, d.box, d.score.hex(), d.azimuth.hex()) for d in got] \
                == [(d.image_id, d.class_id, d.box, d.score.hex(), d.azimuth.hex()) for d in want]


def test_each_arm_trains_under_its_protocols_config(monkeypatch):
    """With ``train`` stubbed to return untrained nets, each protocol hands
    ``train`` (positionally, the config third) the configs that each
    protocol once spelled out for itself: the comparison's joint arms the
    defaults, its pose-only arms the 32 foreground rows of a default
    batch; the probe's arms 128 foreground rows, half-way decay, no
    weight decay and no flips."""
    seen = []

    def fake_train(*args, **kwargs):
        assert not kwargs and len(args) == 4
        seen.append(args[2])
        return SimpleNamespace(params=init_params(args[1]))

    monkeypatch.setattr(experiments, "train", fake_train)
    seed, iters = 3, 7
    s = {arm: experiments._derived_seed(seed, row[0]) for arm, row in experiments._ARMS.items()}
    pose = {"batch_size": 32, "positive_fraction": 1.0}
    experiments.compare_formulations(seed, iters)
    assert seen == [
        TrainConfig(total_iters=iters, seed=s["detector"]),
        TrainConfig(**pose, total_iters=iters, seed=s["reg2d"]),
        TrainConfig(**pose, total_iters=iters, seed=s["reg3d"]),
        TrainConfig(**pose, total_iters=iters, seed=s["cls"]),
        TrainConfig(total_iters=iters, seed=s["joint_cls"]),
    ]
    seen.clear()
    experiments.symmetry_probe(seed, iters=iters)
    assert seen == [
        TrainConfig(batch_size=128, positive_fraction=1.0, total_iters=iters,
                    decay_at=(iters // 2,), weight_decay=0.0, flip_augment=False, seed=s[arm])
        for arm in ("reg3d", "reg2d", "cls")
    ]


def test_arm_predictions_one_per_arm_and_rerun_bitwise():
    test_ds, preds = experiments.arm_predictions(1, iters=3, width=8)
    assert list(preds) == list(experiments._ARMS)
    for pred in preds.values():
        assert pred.scores.shape == pred.azimuths.shape == (test_ds.n_samples, 4)
    _, again = experiments.arm_predictions(1, iters=3, width=8)
    for arm, pred in preds.items():
        assert pred.scores.tobytes() == again[arm].scores.tobytes(), arm
        assert pred.azimuths.tobytes() == again[arm].azimuths.tobytes(), arm
