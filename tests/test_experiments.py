"""The one mapping from a head's prediction to scored, posed detections.

``pose_angles`` serves the CLI and the experiment protocols alike, so its
bin centres must equal ``bin_center`` bit for bit and its scores must be
the head's own detection scores (1 for pose-only heads).
``compose_detections`` must give the detections of reading one NumPy
scalar per (proposal, class).
"""

import math

import numpy as np

from test_codec_equivalence import dataset_records, detection_rows

from viewbench.angles import bin_center
from viewbench.experiments import compose_detections, pose_angles
from viewbench.metrics import Detection
from viewbench.net import ClsPrediction, NetConfig, init_params, predict
from viewbench.synthetic import default_class_specs, generate

HEADS = ("reg", "cls", "joint_reg", "joint_cls")


def _cfg(head):
    return NetConfig(input_dim=3, trunk_widths=(5,), head=head, n_classes=2, n_bins=8, seed=1)


def test_bin_centres_equal_bin_center_bitwise():
    for n_bins in range(2, 401):
        bins = np.arange(1, n_bins + 1)[:, None]
        pred = ClsPrediction(bins, np.zeros((n_bins, 1, n_bins)))
        _, angles = pose_angles(pred)
        expected = [bin_center(v, n_bins) for v in range(1, n_bins + 1)]
        assert angles[:, 0].tolist() == expected, n_bins


def test_scores_per_head():
    x = np.random.default_rng(0).normal(size=(6, 3))
    for head in HEADS:
        cfg = _cfg(head)
        pred = predict(init_params(cfg), cfg, x)
        scores, angles = pose_angles(pred)
        assert scores.shape == angles.shape == (6, 2), head
        if head == "joint_reg":
            np.testing.assert_array_equal(scores, pred.det_probs[:, 1:])
        elif head == "joint_cls":
            np.testing.assert_array_equal(scores, pred.scores)
        else:
            assert np.all(scores == 1.0), head
        if head in ("reg", "joint_reg"):
            np.testing.assert_array_equal(angles, pred.angles)


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
