"""The detection table against the per-detection objects it replaced.

Detections travel as one column table from ``compose_detections`` through
the detection file to ``evaluate``.  The object path it replaced is kept
here as the oracle: one ``Detection`` per (proposal, class), a writer
that formats each object, and per-class greedy matching over objects.  On
seeded datasets, at score floors that keep all, some and none of the
detections, the table path must write the same bytes, read back the same
values (floats compared as ``float.hex``) and report every AP and AVP
float bit for bit, under both AP rules and two IoU thresholds; and
``evaluate`` on a list of ``Detection`` must equal ``evaluate`` on the
table.  Scores are drawn from ten values, so ties are common and the
order among tied detections matters; the scores have one class column
more than the dataset has classes, a class with detections and no ground
truth.
"""

import math

import numpy as np
import pytest

from test_codec_equivalence import _records_key
from test_records import _box_runs, oracle_parse_detections

from viewbench import records
from viewbench.angles import azimuth_to_bin
from viewbench.experiments import compose_detections
from viewbench.metrics import (
    AP_RULES,
    ClassMetrics,
    Detection,
    Detections,
    EvalReport,
    evaluate,
    iou,
    pr_curve,
)
from viewbench.records import DET_HEADER, format_detections, parse_detections
from viewbench.synthetic import default_class_specs, generate

SEEDS = (0, 1, 2)
FLOORS = (0.0, 0.3, 1.0)
IOU_THRESHOLDS = (0.3, 0.5)
BINS = (4, 8, 16, 24)

# ---------------------------------------------------------------- the oracle


def oracle_compose(ds, scores, angles, floor=0.0):
    dets = []
    row = 0
    for scene in ds.scenes:
        for p in scene.proposals:
            row_angles = angles[row].tolist()
            for c, score in enumerate(scores[row].tolist()):
                if score >= floor:
                    dets.append(Detection(scene.image_id, c + 1, p.box, score, row_angles[c]))
            row += 1
    return dets


_DET_BOX = "%.17g %.17g %.17g %.17g"
_DET_REST = "%s %s %s %.17g %.12g"


def oracle_format(dets):
    lines = [DET_HEADER]
    box = box_text = None
    for d in dets:
        if d.box is not box:
            box = d.box
            box_text = _DET_BOX % (box.x_min, box.y_min, box.x_max, box.y_max)
        lines.append(_DET_REST % (d.image_id, d.class_id, box_text, d.score,
                                  math.degrees(d.azimuth)))
    return "\n".join(lines) + "\n"


def _oracle_match_class(gts, dets, bins, iou_threshold):
    by_image = {}
    for idx, g in enumerate(gts):
        by_image.setdefault(g.image_id, []).append(idx)
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    gt_az = np.array([g.azimuth for g in gts])
    det_az = np.array([d.azimuth for d in dets])
    gt_bins = {k: azimuth_to_bin(gt_az, k).tolist() for k in bins}
    det_bins = {k: azimuth_to_bin(det_az, k).tolist() for k in bins}
    taken = [False] * len(gts)
    tp = [False] * len(dets)
    avp_tp = {k: [False] * len(dets) for k in bins}
    for rank, i in enumerate(order):
        det = dets[i]
        best_j = -1
        best_iou = 0.0
        for j in by_image.get(det.image_id, ()):
            if taken[j]:
                continue
            ov = iou(det.box, gts[j].box)
            if ov >= iou_threshold and ov > best_iou:
                best_iou = ov
                best_j = j
        if best_j >= 0:
            taken[best_j] = True
            tp[rank] = True
            for k in bins:
                if det_bins[k][i] == gt_bins[k][best_j]:
                    avp_tp[k][rank] = True
    return tp, avp_tp


def oracle_evaluate(gts, dets, bins, iou_threshold, rule):
    class_ids = sorted({g.class_id for g in gts} | {d.class_id for d in dets})
    per_class = {}
    for c in class_ids:
        class_gts = [g for g in gts if g.class_id == c]
        class_dets = [d for d in dets if d.class_id == c]
        n_gt = len(class_gts)
        if n_gt == 0:
            per_class[c] = ClassMetrics(ap=None, avp={k: None for k in bins}, n_gt=0)
            continue
        tp, avp_tp = _oracle_match_class(class_gts, class_dets, bins, iou_threshold)
        ap = pr_curve(tp, n_gt, rule).ap
        avp = {k: pr_curve(avp_tp[k], n_gt, rule).ap for k in bins}
        per_class[c] = ClassMetrics(ap=ap, avp=avp, n_gt=n_gt)
    scored = [c for c in class_ids if per_class[c].n_gt > 0]
    if scored:
        mean_ap = float(np.mean([per_class[c].ap for c in scored]))
        mean_avp = {k: float(np.mean([per_class[c].avp[k] for c in scored])) for k in bins}
    else:
        mean_ap = 0.0
        mean_avp = {k: 0.0 for k in bins}
    return EvalReport(per_class=per_class, mean_ap=mean_ap, mean_avp=mean_avp)


# ---------------------------------------------------------------- comparison


def _hex(x):
    assert x is None or type(x) is float, type(x)
    return None if x is None else x.hex()


def _report_key(report):
    per_class = {
        c: (type(c), m.n_gt, type(m.n_gt), _hex(m.ap), {k: _hex(v) for k, v in m.avp.items()})
        for c, m in report.per_class.items()
    }
    return (list(per_class), per_class, _hex(report.mean_ap),
            {k: _hex(v) for k, v in report.mean_avp.items()})


def _case(seed):
    """A seeded test split, with scores in ten tied levels (the top level
    below 1) and azimuths outside [0, 2*pi) too, for one class more than
    the split has."""
    ds = generate(seed, 25, default_class_specs(seed, feature_dim=4), split="test")
    rng = np.random.default_rng(seed)
    n_classes = ds.n_classes + 1
    scores = np.floor(rng.random((ds.n_samples, n_classes)) * 10.0) / 10.0
    angles = rng.uniform(-1.0, 8.0, (ds.n_samples, n_classes))
    return ds, scores, angles


@pytest.fixture(scope="module", params=SEEDS)
def case(request):
    return _case(request.param)


@pytest.mark.parametrize("floor", FLOORS)
def test_composition_and_file_bytes(case, floor, tmp_path):
    ds, scores, angles = case
    table = compose_detections(ds, scores, angles, floor=floor)
    want = oracle_compose(ds, scores, angles, floor=floor)
    assert isinstance(table, Detections)
    assert len(table) == len(want)
    assert (len(table) == 0) == (floor == 1.0)
    assert _records_key(table) == _records_key(want)
    text = oracle_format(want)
    assert format_detections(table) == text
    assert format_detections(want) == text
    records.write_detections(tmp_path / "dets.txt", table)
    assert (tmp_path / "dets.txt").read_bytes() == text.encode()


@pytest.mark.parametrize("floor", FLOORS)
def test_parsed_values(case, floor):
    ds, scores, angles = case
    text = oracle_format(oracle_compose(ds, scores, angles, floor=floor))
    got = parse_detections(text, path="d.txt")
    want = oracle_parse_detections(text, path="d.txt")
    assert _records_key(got) == _records_key(want)
    assert _box_runs(got) == _box_runs(want)


@pytest.mark.parametrize("floor", FLOORS)
@pytest.mark.parametrize("iou_threshold", IOU_THRESHOLDS)
@pytest.mark.parametrize("rule", AP_RULES)
def test_reports(case, floor, iou_threshold, rule):
    ds, scores, angles = case
    gts = ds.ground_truths()
    objects = oracle_compose(ds, scores, angles, floor=floor)
    text = oracle_format(objects)
    for table, want in (
        (compose_detections(ds, scores, angles, floor=floor), objects),
        (parse_detections(text), oracle_parse_detections(text)),
    ):
        want_key = _report_key(oracle_evaluate(gts, want, BINS, iou_threshold, rule))
        got = _report_key(evaluate(gts, table, BINS, iou_threshold, rule))
        assert got == want_key
        assert _report_key(evaluate(gts, want, BINS, iou_threshold, rule)) == want_key
        if floor < 1.0:
            # the class without ground truth has detections and null metrics
            extra = ds.n_classes + 1
            assert got[1][extra][1] == 0 and got[1][extra][3] is None


def test_ties_and_matches_occur():
    """The cases exercise what the oracle decides: tied scores among one
    class's detections, true positives and false positives."""
    for seed in SEEDS:
        ds, scores, angles = _case(seed)
        report = evaluate(ds.ground_truths(), compose_detections(ds, scores, angles), BINS, 0.5)
        assert len(np.unique(scores[:, 0])) < len(scores) // 2
        aps = [m.ap for m in report.per_class.values() if m.ap is not None]
        assert aps and all(0.0 < ap < 1.0 for ap in aps)
