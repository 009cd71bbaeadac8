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
checks and then sets each field, since a pipeline run builds hundreds of
thousands of them.  A record stores its azimuth canonical: a float already
in [0, 2*pi) as it is (``canonicalize`` would return it unchanged), any
other value through ``canonicalize``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .angles import TWO_PI, azimuth_to_bin, canonicalize
from .errors import InvalidBinning, InvalidParameter

AP_RULES = ("allpoints", "elevenpoint")

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


@dataclass(frozen=True)
class PRCurve:
    """Cumulative precision/recall per detection, plus the integrated AP."""

    recalls: np.ndarray
    precisions: np.ndarray
    ap: float

    @property
    def points(self) -> list[tuple[float, float]]:
        return list(zip(self.recalls.tolist(), self.precisions.tolist()))


def pr_curve(flags: Sequence[bool], n_gt: int, rule: str = "allpoints") -> PRCurve:
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


def _match_class(
    gts: list[GroundTruth],
    dets: list[Detection],
    bins: Sequence[int],
    iou_threshold: float,
) -> tuple[list[bool], dict[int, list[bool]]]:
    """Greedy matching for one class; returns AP flags and per-K AVP flags."""
    by_image: dict[str, list[int]] = {}
    for idx, g in enumerate(gts):
        by_image.setdefault(g.image_id, []).append(idx)
    # descending score; python sort is stable, so ties keep input order
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


def evaluate(
    gts: Iterable[GroundTruth],
    dets: Iterable[Detection],
    bins: Sequence[int] = (4, 8, 16, 24),
    iou_threshold: float = 0.5,
    rule: str = "allpoints",
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

    gts = list(gts)
    dets = list(dets)
    class_ids = sorted({g.class_id for g in gts} | {d.class_id for d in dets})
    per_class: dict[int, ClassMetrics] = {}
    for c in class_ids:
        class_gts = [g for g in gts if g.class_id == c]
        class_dets = [d for d in dets if d.class_id == c]
        n_gt = len(class_gts)
        if n_gt == 0:
            per_class[c] = ClassMetrics(ap=None, avp={k: None for k in bins}, n_gt=0)
            continue
        tp, avp_tp = _match_class(class_gts, class_dets, bins, iou_threshold)
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
