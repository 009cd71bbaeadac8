"""Detection/viewpoint evaluation protocol tests.

Hand-worked expectations: a single matched detection gives a one-point PR
curve with AP 1; [TP, FP, TP] with two ground truths integrates to
0.5 * 1 + 0.5 * (2/3).  Fuzzed inputs check the structural facts: AVP never
exceeds AP (viewpoint positives are a subset of detection positives), and a
hit at 24 bins is a hit at 8 bins because the 8-bin edges are a subset of
the 24-bin edges.
"""

import math

import numpy as np
import pytest

from viewbench.angles import TWO_PI, azimuth_to_bin, bin_center
from viewbench.errors import InvalidBinning, InvalidParameter
from viewbench.metrics import (
    Box,
    Detection,
    GroundTruth,
    _class_flags,
    detection_table,
    evaluate,
    iou,
    pr_curve,
)

UNIT = Box(0.0, 0.0, 1.0, 1.0)
# horizontal shift of 0.25: intersection 0.75, union 1.25, IoU exactly 0.6
SHIFTED_06 = Box(0.25, 0.0, 1.25, 1.0)


def _gt(image="img0", cls=1, box=UNIT, azimuth=0.0):
    return GroundTruth(image, cls, box, azimuth)


def _det(image="img0", cls=1, box=UNIT, score=1.0, azimuth=0.0):
    return Detection(image, cls, box, score, azimuth)


class TestIoU:
    def test_identity(self):
        assert iou(UNIT, UNIT) == 1.0

    def test_disjoint(self):
        assert iou(UNIT, Box(5.0, 5.0, 6.0, 6.0)) == 0.0

    def test_half_shift(self):
        shifted = Box(0.5, 0.0, 1.5, 1.0)
        assert iou(UNIT, shifted) == pytest.approx(0.5 / 1.5, abs=1e-12)

    def test_degenerate_box_rejected(self):
        with pytest.raises(InvalidParameter):
            Box(1.0, 0.0, 1.0, 1.0)
        with pytest.raises(InvalidParameter):
            Box(0.0, 2.0, 1.0, 1.0)


class TestPRCurve:
    def test_single_tp(self):
        for rule in ("allpoints", "elevenpoint"):
            assert pr_curve([True], 1, rule).ap == pytest.approx(1.0, abs=1e-12)

    def test_single_fp(self):
        assert pr_curve([False], 1).ap == 0.0

    def test_hand_envelope(self):
        curve = pr_curve([True, False, True], 2)
        np.testing.assert_allclose(curve.recalls, [0.5, 0.5, 1.0], atol=1e-15)
        np.testing.assert_allclose(curve.precisions, [1.0, 0.5, 2 / 3], atol=1e-15)
        assert curve.ap == pytest.approx(0.5 + 0.5 * (2 / 3), abs=1e-12)

    def test_eleven_point_differs(self):
        # same flags, eleven-point rule: max precision at recall >= t is 1
        # for t <= 0.5 and 2/3 above, so (6 * 1 + 5 * 2/3) / 11
        curve = pr_curve([True, False, True], 2, "elevenpoint")
        assert curve.ap == pytest.approx((6 + 5 * 2 / 3) / 11, abs=1e-12)

    def test_empty(self):
        assert pr_curve([], 3).ap == 0.0

    def test_recall_monotone(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            flags = rng.random(12) < 0.5
            n_gt = max(1, int(flags.sum()))
            curve = pr_curve(list(flags), n_gt)
            assert np.all(np.diff(curve.recalls) >= 0)

    def test_bad_args(self):
        with pytest.raises(InvalidParameter):
            pr_curve([True], 0)
        with pytest.raises(InvalidParameter):
            pr_curve([True], 1, "fivepoint")


def _loop_envelope_ap(flags, n_gt):
    """All-points AP with the precision envelope built by a scalar loop."""
    cum_tp = np.cumsum(np.asarray(flags, dtype=float))
    mrec = np.concatenate([[0.0], cum_tp / n_gt, [1.0]])
    mpre = np.concatenate([[0.0], cum_tp / np.arange(1, cum_tp.size + 1), [0.0]])
    for i in range(mpre.size - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    step = np.flatnonzero(mrec[1:] != mrec[:-1]) + 1
    return float(np.sum((mrec[step] - mrec[step - 1]) * mpre[step]))


def _scalar_match_class(gts, dets, bins, iou_threshold):
    """Greedy matching with every azimuth binned by a scalar call."""
    by_image = {}
    for idx, g in enumerate(gts):
        by_image.setdefault(g.image_id, []).append(idx)
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    taken = [False] * len(gts)
    tp = [False] * len(dets)
    avp_tp = {k: [False] * len(dets) for k in bins}
    for rank, i in enumerate(order):
        best_j, best_iou = -1, 0.0
        for j in by_image.get(dets[i].image_id, ()):
            ov = iou(dets[i].box, gts[j].box)
            if not taken[j] and ov >= iou_threshold and ov > best_iou:
                best_j, best_iou = j, ov
        if best_j >= 0:
            taken[best_j] = True
            tp[rank] = True
            for k in bins:
                if azimuth_to_bin(dets[i].azimuth, k) == azimuth_to_bin(gts[best_j].azimuth, k):
                    avp_tp[k][rank] = True
    return tp, avp_tp


class TestArrayFormsMatchLoops:
    """The array envelope and array binning equal their scalar forms."""

    def test_envelope(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 10, 100, 1000):
            for rate in (0.0, 0.1, 0.5, 0.9, 1.0):
                flags = rng.random(n) < rate
                for n_gt in (1, max(1, int(flags.sum())), n + 5):
                    got = pr_curve(flags, n_gt).ap
                    assert got.hex() == _loop_envelope_ap(flags, n_gt).hex()

    def test_match_class_bins(self):
        rng = np.random.default_rng(1)
        bins = (3, 4, 8, 16, 24)
        # edges of every binning, an ulp either side, and random angles
        edges = [(2 * v - 1) * math.pi / k for k in bins for v in range(1, k + 1)]
        special = edges + [math.nextafter(e, 0.0) for e in edges] + [
            math.nextafter(e, 7.0) for e in edges] + [0.0, math.nextafter(TWO_PI, 0.0)]
        for trial in range(20):
            n_gt_want = int(rng.integers(1, 30))
            gts = [_gt(f"img{int(rng.integers(3))}", box=UNIT if j % 2 else SHIFTED_06,
                       azimuth=float(rng.choice(special)))
                   for j in range(n_gt_want)]
            dets = [_det(f"img{int(rng.integers(3))}", box=UNIT if j % 3 else SHIFTED_06,
                         score=float(rng.integers(5)), azimuth=float(rng.choice(special)))
                    for j in range(int(rng.integers(0, 60)))]
            n_gt, tp, avp_tp = _class_flags(gts, detection_table(dets), bins, 0.5)[1]
            assert n_gt == n_gt_want
            got = tp.tolist(), {k: flags.tolist() for k, flags in avp_tp.items()}
            assert got == _scalar_match_class(gts, dets, bins, 0.5)


class TestEvaluateHandExamples:
    def test_match_with_correct_bin(self):
        gts = [_gt(azimuth=bin_center(3, 24))]
        dets = [_det(box=SHIFTED_06, azimuth=bin_center(3, 24))]
        report = evaluate(gts, dets)
        assert report.per_class[1].ap == pytest.approx(1.0, abs=1e-12)
        assert report.per_class[1].avp[24] == pytest.approx(1.0, abs=1e-12)

    def test_match_with_wrong_bin(self):
        gts = [_gt(azimuth=bin_center(3, 24))]
        dets = [_det(box=SHIFTED_06, azimuth=bin_center(4, 24))]
        report = evaluate(gts, dets)
        assert report.per_class[1].ap == pytest.approx(1.0, abs=1e-12)
        assert report.per_class[1].avp[24] == 0.0

    def test_duplicate_becomes_fp(self):
        theta = bin_center(3, 24)
        gts = [_gt(azimuth=theta)]
        dets = [
            _det(box=SHIFTED_06, score=0.9, azimuth=theta),
            _det(box=SHIFTED_06, score=0.8, azimuth=theta),
        ]
        report = evaluate(gts, dets)
        # first detection takes the ground truth; the envelope still
        # integrates to 1 because recall hits 1 at precision 1
        assert report.per_class[1].ap == pytest.approx(1.0, abs=1e-12)
        assert report.per_class[1].avp[24] == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_hurts_after_miss(self):
        # with two ground truths and the second one unmatched, the duplicate
        # drags precision at the tail: flags [TP, FP] with n_gt=2 -> AP 0.5
        theta = bin_center(3, 24)
        gts = [_gt(azimuth=theta), _gt(image="img1", azimuth=theta)]
        dets = [
            _det(box=SHIFTED_06, score=0.9, azimuth=theta),
            _det(box=SHIFTED_06, score=0.8, azimuth=theta),
        ]
        report = evaluate(gts, dets)
        assert report.per_class[1].ap == pytest.approx(0.5, abs=1e-12)

    def test_low_iou_is_fp(self):
        gts = [_gt()]
        dets = [_det(box=Box(0.6, 0.0, 1.6, 1.0))]  # IoU 0.25
        report = evaluate(gts, dets)
        assert report.per_class[1].ap == 0.0

    def test_no_detections(self):
        report = evaluate([_gt()], [])
        assert report.per_class[1].ap == 0.0
        assert report.mean_ap == 0.0

    def test_image_separation(self):
        # same-looking boxes in different images never match each other
        gts = [_gt(image="a")]
        dets = [_det(image="b")]
        report = evaluate(gts, dets)
        assert report.per_class[1].ap == 0.0


class TestMatchingRules:
    def test_highest_iou_wins(self):
        # two ground truths; the detection overlaps both but one more
        near = Box(0.1, 0.0, 1.1, 1.0)
        far = Box(0.4, 0.0, 1.4, 1.0)
        theta = bin_center(1, 24)
        other = bin_center(13, 24)
        gts = [_gt(box=far, azimuth=other), _gt(box=near, azimuth=theta)]
        dets = [_det(box=UNIT, azimuth=theta)]
        report = evaluate(gts, dets)
        # matched the nearer ground truth, whose bin agrees
        assert report.per_class[1].avp[24] == pytest.approx(0.5, abs=1e-12)

    def test_iou_tie_keeps_first_ground_truth(self):
        # symmetric overlaps; the first listed ground truth wins the tie
        left = Box(0.0, 0.0, 1.0, 1.0)
        right = Box(0.5, 0.0, 1.5, 1.0)
        mid = Box(0.25, 0.0, 1.25, 1.0)
        theta_a = bin_center(2, 24)
        theta_b = bin_center(14, 24)
        gts = [_gt(box=left, azimuth=theta_a), _gt(box=right, azimuth=theta_b)]
        dets = [_det(box=mid, azimuth=theta_a)]
        report = evaluate(gts, dets)
        assert report.per_class[1].avp[24] == pytest.approx(0.5, abs=1e-12)

    def test_score_ties_keep_input_order(self):
        # equal scores: the first listed detection is matched first
        theta = bin_center(5, 24)
        gts = [_gt(azimuth=theta)]
        dets = [
            _det(box=SHIFTED_06, score=0.7, azimuth=theta),
            _det(box=SHIFTED_06, score=0.7, azimuth=bin_center(6, 24)),
        ]
        report = evaluate(gts, dets)
        assert report.per_class[1].avp[24] == pytest.approx(1.0, abs=1e-12)

    def test_permutation_invariance_distinct_scores(self):
        rng = np.random.default_rng(1)
        gts, dets = _fuzz_case(rng, n_images=4, n_classes=3, n_gt=8, n_det=14)
        base = evaluate(gts, dets)
        for _ in range(5):
            perm = list(rng.permutation(len(dets)))
            shuffled = [dets[i] for i in perm]
            report = evaluate(gts, shuffled)
            assert report.mean_ap == base.mean_ap
            assert report.mean_avp == base.mean_avp
            for c in base.per_class:
                assert report.per_class[c].ap == base.per_class[c].ap
                assert report.per_class[c].avp == base.per_class[c].avp


def _fuzz_case(rng, n_images=3, n_classes=3, n_gt=6, n_det=10):
    def box():
        x, y = rng.uniform(0, 4, 2)
        w, h = rng.uniform(0.4, 2.0, 2)
        return Box(float(x), float(y), float(x + w), float(y + h))

    gts = [
        GroundTruth(
            f"img{rng.integers(n_images)}",
            int(rng.integers(1, n_classes + 1)),
            box(),
            float(rng.uniform(0, 2 * math.pi)),
        )
        for _ in range(n_gt)
    ]
    # scores drawn continuously are distinct with probability 1
    dets = []
    for _ in range(n_det):
        if gts and rng.random() < 0.6:
            g = gts[rng.integers(len(gts))]
            b = g.box
            dx, dy = rng.uniform(-0.3, 0.3, 2)
            db = Box(b.x_min + dx, b.y_min + dy, b.x_max + dx, b.y_max + dy)
            azim = g.azimuth if rng.random() < 0.5 else float(rng.uniform(0, 2 * math.pi))
            dets.append(Detection(g.image_id, g.class_id, db, float(rng.random()), azim))
        else:
            dets.append(
                Detection(
                    f"img{rng.integers(n_images)}",
                    int(rng.integers(1, n_classes + 1)),
                    box(),
                    float(rng.random()),
                    float(rng.uniform(0, 2 * math.pi)),
                )
            )
    return gts, dets


class TestStructuralInvariants:
    def test_fuzz_avp_bounded_by_ap(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            gts, dets = _fuzz_case(rng)
            report = evaluate(gts, dets)
            for c, m in report.per_class.items():
                if m.n_gt == 0:
                    assert m.ap is None
                    assert all(v is None for v in m.avp.values())
                    continue
                assert 0.0 <= m.ap <= 1.0
                for k, v in m.avp.items():
                    assert 0.0 <= v <= m.ap + 1e-12
                # 8-bin edges nest inside 24-bin edges, so a 24-bin hit
                # is an 8-bin hit and the coarser curve dominates
                assert m.avp[8] >= m.avp[24] - 1e-12

    def test_ground_truth_replay_is_perfect(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            gts, _ = _fuzz_case(rng, n_gt=8, n_det=0)
            replay = [
                Detection(g.image_id, g.class_id, g.box, 1.0, g.azimuth) for g in gts
            ]
            report = evaluate(gts, replay, bins=(4, 8, 16, 24))
            assert report.mean_ap == pytest.approx(1.0, abs=1e-12)
            for k in (4, 8, 16, 24):
                assert report.mean_avp[k] == pytest.approx(1.0, abs=1e-12)

    def test_mean_consistency(self):
        rng = np.random.default_rng(4)
        gts, dets = _fuzz_case(rng, n_classes=4, n_gt=10, n_det=16)
        report = evaluate(gts, dets)
        scored = [c for c, m in report.per_class.items() if m.n_gt > 0]
        want = sum(report.per_class[c].ap for c in scored) / len(scored)
        assert report.mean_ap == pytest.approx(want, abs=1e-12)

    def test_detection_only_class_has_null_metrics(self):
        gts = [_gt(cls=1)]
        dets = [_det(cls=1), _det(cls=2, score=0.5)]
        report = evaluate(gts, dets)
        assert report.per_class[2].n_gt == 0
        assert report.per_class[2].ap is None
        # the mean covers class 1 alone
        assert report.mean_ap == report.per_class[1].ap


class TestEvaluateValidation:
    def test_bad_bins(self):
        with pytest.raises(InvalidBinning):
            evaluate([_gt()], [_det()], bins=(24, 1))

    @pytest.mark.parametrize("bins, message", [
        ((4, 4), r"^AVP bin counts must not repeat, got \[4, 4\]$"),
        ((8, 24, 8), r"^AVP bin counts must not repeat, got \[8, 24, 8\]$"),
    ])
    def test_repeated_bins(self, bins, message):
        """The report keys AVP by bin count, so a repeated count would
        print and echo a column that no key holds."""
        with pytest.raises(InvalidBinning, match=message):
            evaluate([_gt()], [_det()], bins=bins)

    def test_bad_threshold(self):
        for thr in (0.0, 1.0, -0.5):
            with pytest.raises(InvalidParameter):
                evaluate([_gt()], [_det()], iou_threshold=thr)

    def test_bad_rule(self):
        with pytest.raises(InvalidParameter):
            evaluate([_gt()], [_det()], rule="other")

    def test_nonfinite_score_rejected(self):
        with pytest.raises(InvalidParameter):
            _det(score=math.nan)
