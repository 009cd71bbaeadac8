"""Joint detection and viewpoint evaluation: AP and AVP.

The protocol mirrors the standard VOC-style detection evaluation.  Per
class, detections are sorted by descending score and greedily matched to
unmatched ground truths of the same image with IoU at or above the
threshold.  A matched detection is a true positive for AP; for AVP-K it
additionally must place its predicted azimuth in the same K-bin as the
ground truth's azimuth, otherwise it counts as a false positive for that
K.  Average precision integrates the monotone precision envelope over
recall (all-points rule); the 11-point rule is available for comparison.

AVP positives are a subset of AP positives with the same recall
denominator, so AVP_K <= AP always holds.

The records (:class:`Box`, :class:`GroundTruth`, :class:`Detection`) are
frozen dataclasses with slots and a hand-written ``__init__`` that runs the
checks and then sets each field.  A record stores its azimuth canonical: a
float already in [0, 2*pi) as it is (``canonicalize`` would return it
unchanged), any other value through ``canonicalize``.

Detections travel as one column table, :class:`Detections`, from their
composition through the detection file to ``evaluate``; an iterable of
``Detection`` records becomes a table through ``detection_table``.
``evaluate`` matches over the table's columns: one stable sort orders the
detections by class and descending score, the IoU of every detection with
the same-class ground truths of its image is computed in array form in
``iou``'s order of operations, and the greedy loop visits only the
detections with a candidate at or above the threshold, since no other can
match or take a ground truth.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .angles import TWO_PI, azimuth_to_bin, canonicalize
from .errors import InvalidBinning, InvalidParameter

# The AP integration rules, the default first.
AP_RULES = ("allpoints", "elevenpoint")

# The AVP bin counts reported by default.
AVP_BINS = (4, 8, 16, 24)

_set = object.__setattr__


def _canonical(azimuth):
    if type(azimuth) is float and 0.0 <= azimuth < TWO_PI:
        return azimuth
    return canonicalize(azimuth)


@dataclass(frozen=True, slots=True)
class Box:
    """Axis-aligned box in arbitrary consistent units."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __init__(self, x_min: float, y_min: float, x_max: float, y_max: float):
        if not (x_min < x_max and y_min < y_max):
            raise InvalidParameter(f"degenerate box ({x_min}, {y_min}, {x_max}, {y_max})")
        _set(self, "x_min", x_min)
        _set(self, "y_min", y_min)
        _set(self, "x_max", x_max)
        _set(self, "y_max", y_max)

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)


@dataclass(frozen=True, slots=True)
class GroundTruth:
    image_id: str
    class_id: int
    box: Box
    azimuth: float  # canonical radians

    def __init__(self, image_id: str, class_id: int, box: Box, azimuth: float):
        _set(self, "image_id", image_id)
        _set(self, "class_id", class_id)
        _set(self, "box", box)
        _set(self, "azimuth", _canonical(azimuth))


@dataclass(frozen=True, slots=True)
class Detection:
    image_id: str
    class_id: int
    box: Box
    score: float
    azimuth: float  # predicted azimuth, canonical radians

    def __init__(self, image_id: str, class_id: int, box: Box, score: float, azimuth: float):
        if not math.isfinite(score):
            raise InvalidParameter(f"detection score must be finite, got {score}")
        _set(self, "image_id", image_id)
        _set(self, "class_id", class_id)
        _set(self, "box", box)
        _set(self, "score", score)
        _set(self, "azimuth", _canonical(azimuth))


def iou(a: Box, b: Box) -> float:
    """Intersection area over union area; 0 for disjoint boxes."""
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


@dataclass(frozen=True, eq=False)
class Detections:
    """Scored, posed detections as columns, one row per detection.

    ``boxes`` holds one (x_min, y_min, x_max, y_max) row per box and
    ``box_rows`` the row of each detection's box, so the classes of one
    proposal share one box row.  The table applies :class:`Detection`'s
    checks to all rows at once: the first row with a non-finite score or
    azimuth raises what its Detection would, and the azimuths are stored
    canonical.  Its boxes are the caller's to check.
    """

    image_ids: list
    class_ids: np.ndarray  # int64
    boxes: np.ndarray  # (n_boxes, 4) float64
    box_rows: np.ndarray  # intp
    scores: np.ndarray  # float64
    azimuths: np.ndarray  # float64, canonical radians

    def __post_init__(self):
        finite = np.isfinite(self.scores)
        if not finite.all():
            i = int(np.argmin(finite))
            canonicalize(self.azimuths[:i])  # a non-finite azimuth before it raises first
            raise InvalidParameter(
                f"detection score must be finite, got {float(self.scores[i])}"
            )
        _set(self, "azimuths", canonicalize(self.azimuths))

    def __len__(self) -> int:
        return len(self.image_ids)


def box_array(boxes: Sequence[Box]) -> np.ndarray:
    """The (n, 4) array of the boxes' x_min, y_min, x_max and y_max, read
    field by field (no tuple per box)."""
    fields = ("x_min", "y_min", "x_max", "y_max")
    return np.array([getattr(b, f) for f in fields for b in boxes], dtype=float).reshape(4, -1).T


def detection_table(dets: Detections | Iterable[Detection]) -> Detections:
    """``dets`` as a table: a table as it is, records one row (and one box
    row) each, in order."""
    if isinstance(dets, Detections):
        return dets
    dets = list(dets)
    return Detections(
        [d.image_id for d in dets],
        np.array([d.class_id for d in dets], dtype=np.int64),
        box_array([d.box for d in dets]),
        np.arange(len(dets)),
        np.array([d.score for d in dets], dtype=float),
        np.array([d.azimuth for d in dets], dtype=float),
    )


def _pair_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``iou`` of each row of ``a`` with the same row of ``b``, two (n, 4)
    box arrays, by ``iou``'s operations in its order."""
    iw = np.minimum(a[:, 2], b[:, 2]) - np.maximum(a[:, 0], b[:, 0])
    ih = np.minimum(a[:, 3], b[:, 3]) - np.maximum(a[:, 1], b[:, 1])
    out = np.zeros(len(a))
    hit = (iw > 0.0) & (ih > 0.0)
    a, b, inter = a[hit], b[hit], iw[hit] * ih[hit]
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    out[hit] = inter / (area_a + area_b - inter)
    return out


@dataclass(frozen=True)
class PRCurve:
    """Cumulative precision/recall per detection, plus the integrated AP."""

    recalls: np.ndarray
    precisions: np.ndarray
    ap: float


def pr_curve(flags: Sequence[bool], n_gt: int, rule: str = AP_RULES[0]) -> PRCurve:
    """Precision-recall curve over an ordered true/false-positive sequence.

    ``allpoints`` integrates the monotone precision envelope over recall;
    ``elevenpoint`` averages the max precision at recalls 0, 0.1, ..., 1.
    """
    if n_gt < 1:
        raise InvalidParameter(f"n_gt must be >= 1, got {n_gt}")
    if rule not in AP_RULES:
        raise InvalidParameter(f"rule must be one of {AP_RULES}, got {rule!r}")
    tp = np.asarray(flags, dtype=float)
    if tp.size == 0:
        return PRCurve(np.empty(0), np.empty(0), 0.0)
    cum_tp = np.cumsum(tp)
    ranks = np.arange(1, tp.size + 1)
    recalls = cum_tp / n_gt
    precisions = cum_tp / ranks

    if rule == "elevenpoint":
        ap = 0.0
        for t in np.linspace(0.0, 1.0, 11):
            mask = recalls >= t - 1e-12
            ap += float(np.max(precisions[mask])) if np.any(mask) else 0.0
        ap /= 11.0
    else:
        mrec = np.concatenate([[0.0], recalls, [1.0]])
        # monotone envelope, right to left
        mpre = np.maximum.accumulate(np.concatenate([[0.0], precisions, [0.0]])[::-1])[::-1]
        step = np.flatnonzero(mrec[1:] != mrec[:-1]) + 1
        ap = float(np.sum((mrec[step] - mrec[step - 1]) * mpre[step]))
    return PRCurve(recalls, precisions, float(ap))


@dataclass(frozen=True)
class ClassMetrics:
    """Per-class results; metrics are None when the class has no ground
    truth (such classes are excluded from the means)."""

    ap: float | None
    avp: dict[int, float | None]
    n_gt: int


@dataclass(frozen=True)
class EvalReport:
    per_class: dict[int, ClassMetrics]
    mean_ap: float
    mean_avp: dict[int, float]


def _class_flags(
    gts: list[GroundTruth], dets: Detections, bins: Sequence[int], iou_threshold: float
) -> dict[int, tuple[int, np.ndarray, dict[int, np.ndarray]]]:
    """Greedy matching.  Per class id of either input, sorted: its ground
    truth count, and the AP flags and per-K AVP flags of its detections in
    descending score order (ties in input order)."""
    det_classes, det_class_of = np.unique(dets.class_ids, return_inverse=True)
    class_ids = sorted({g.class_id for g in gts} | set(det_classes.tolist()))
    position = {c: k for k, c in enumerate(class_ids)}
    det_pos = np.array([position[c] for c in det_classes.tolist()], dtype=np.intp)[det_class_of]
    gt_pos = np.array([position[g.class_id] for g in gts], dtype=np.intp)

    # a (class, image) key per ground truth and per detection; a detection
    # of an image without ground truth gets -1, which no ground truth has
    images: dict = {}
    gt_image = [images.setdefault(g.image_id, len(images)) for g in gts]
    gt_key = gt_pos * len(gts) + np.array(gt_image, dtype=np.intp)
    det_image = np.array([images.get(i, -1) for i in dets.image_ids], dtype=np.intp)
    det_key = np.where(det_image >= 0, det_pos * len(gts) + det_image, -1)

    # by class, then descending score; lexsort is stable, so ties keep input order
    order = np.lexsort((-dets.scores, det_pos))
    # each detection's pairs with the ground truths of its key, in that
    # order, and its own pairs in ground truth order
    gt_order = np.argsort(gt_key, kind="stable")
    lo = np.searchsorted(gt_key[gt_order], det_key[order], "left")
    counts = np.searchsorted(gt_key[gt_order], det_key[order], "right") - lo
    pair_det = np.repeat(order, counts)
    skip = np.repeat(np.cumsum(counts) - counts - lo, counts)  # pair index - its gt_order index
    pair_gt = gt_order[np.arange(len(pair_det)) - skip]
    ov = _pair_iou(dets.boxes[dets.box_rows[pair_det]], box_array([g.box for g in gts])[pair_gt])
    cand = ov >= iou_threshold

    match = np.full(len(dets), -1)
    taken = set()
    pairs = zip(pair_det[cand].tolist(), pair_gt[cand].tolist(), ov[cand].tolist())
    for i, det_pairs in itertools.groupby(pairs, key=operator.itemgetter(0)):
        best_j, best_iou = -1, 0.0
        for _, j, ov_j in det_pairs:
            if ov_j > best_iou and j not in taken:
                best_j, best_iou = j, ov_j
        if best_j >= 0:
            taken.add(best_j)
            match[i] = best_j

    matched = match[order]
    tp = matched >= 0
    det_az = dets.azimuths[order[tp]]
    gt_az = np.array([g.azimuth for g in gts], dtype=float)[matched[tp]]
    avp_tp = {k: np.zeros(len(tp), dtype=bool) for k in bins}
    for k, flags in avp_tp.items():
        flags[tp] = azimuth_to_bin(det_az, k) == azimuth_to_bin(gt_az, k)
    ends = np.searchsorted(det_pos[order], np.arange(len(class_ids) + 1))
    n_gt = np.bincount(gt_pos, minlength=len(class_ids)).tolist()
    spans = [slice(ends[p], ends[p + 1]) for p in range(len(class_ids))]
    return {
        c: (n_gt[p], tp[spans[p]], {k: flags[spans[p]] for k, flags in avp_tp.items()})
        for p, c in enumerate(class_ids)
    }


def evaluate(
    gts: Iterable[GroundTruth],
    dets: Detections | Iterable[Detection],
    bins: Sequence[int] = AVP_BINS,
    iou_threshold: float = 0.5,
    rule: str = AP_RULES[0],
) -> EvalReport:
    """Per-class AP and AVP-K over ground truths and scored detections.

    Classes are taken from the union of both record lists; a class with no
    ground truth is reported with ``n_gt=0`` and null metrics and does not
    enter the means.
    """
    bins = tuple(int(k) for k in bins)
    for k in bins:
        if k < 2:
            raise InvalidBinning(f"AVP bin count must be >= 2, got {k}")
    if not 0.0 < iou_threshold < 1.0:
        raise InvalidParameter(f"iou threshold must be in (0, 1), got {iou_threshold}")
    if rule not in AP_RULES:
        raise InvalidParameter(f"rule must be one of {AP_RULES}, got {rule!r}")

    per_class: dict[int, ClassMetrics] = {}
    flags = _class_flags(list(gts), detection_table(dets), bins, iou_threshold)
    for c, (n_gt, tp, avp_tp) in flags.items():
        if n_gt == 0:
            per_class[c] = ClassMetrics(ap=None, avp={k: None for k in bins}, n_gt=0)
            continue
        ap = pr_curve(tp, n_gt, rule).ap
        avp = {k: pr_curve(avp_tp[k], n_gt, rule).ap for k in bins}
        per_class[c] = ClassMetrics(ap=ap, avp=avp, n_gt=n_gt)

    scored = [c for c in per_class if per_class[c].n_gt > 0]
    if scored:
        mean_ap = float(np.mean([per_class[c].ap for c in scored]))
        mean_avp = {k: float(np.mean([per_class[c].avp[k] for c in scored])) for k in bins}
    else:
        mean_ap = 0.0
        mean_avp = {k: 0.0 for k in bins}
    return EvalReport(per_class=per_class, mean_ap=mean_ap, mean_avp=mean_avp)
