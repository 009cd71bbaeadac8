"""Training objectives for viewpoint estimation, with analytic gradients.

Every loss takes the raw head outputs for a batch plus the batch targets and
returns a :class:`LossResult` holding the summed loss value and its gradient
with respect to the outputs, laid out exactly like the outputs themselves.
Batch reduction is a plain sum; callers that want a per-sample figure divide
by the batch size.

Targets come as one :class:`Labels` batch (class ids and azimuths as
arrays, which is what ``net.make_batch`` produces) or as any sequence of
per-sample :class:`Target` values.  Each loss turns its input into
``Labels`` once at entry; bins, embeddings and slots are then array code.
A bad label raises for the first offending sample in index order.

Output layouts
--------------
* pose regression: ``(B, n_classes, dim)`` -- one embedding row per class.
* pose classification: ``(B, n_classes, n_bins)`` -- one logit row per class,
  normalized per class row.
* joint regression: :class:`JointRegOutputs` -- detection logits over
  ``n_classes + 1`` slots (background at column 0) plus a pose block.
* joint classification: :class:`JointClsOutputs` -- object logits over all
  ``(class, bin)`` slots plus one background logit, normalized globally.

Per-class heads mean that a sample only ever touches the output row of its
own class; rows of absent classes receive exactly zero gradient.  The joint
classification loss is the exception by design: its shared normalizer
couples every slot.

All softmaxes subtract the row maximum before exponentiating, so overflow
cannot occur for finite inputs.  Evaluation is sequential and deterministic:
equal inputs give bit-identical values and gradients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .angles import azimuth_to_bin, encode
from .errors import (
    BackgroundInPoseLoss,
    BackgroundInRegression,
    ClassOutOfRange,
    ConfigError,
    InvalidAngle,
    InvalidParameter,
    LayoutError,
)

LOSS_KINDS = (
    "regression",
    "classification",
    "geometric",
    "joint_regression",
    "joint_classification",
)


@dataclass(frozen=True)
class Target:
    """One training sample's label: class id (0 = background) and azimuth.

    ``azimuth`` is canonical radians and must be present exactly when the
    sample is foreground.
    """

    class_id: int
    azimuth: float | None = None

    def __post_init__(self):
        if self.class_id < 0:
            raise ClassOutOfRange(f"class_id must be >= 0, got {self.class_id}")
        if self.class_id == 0 and self.azimuth is not None:
            raise LayoutError("background target must not carry an azimuth")
        if self.class_id > 0 and self.azimuth is None:
            raise LayoutError("foreground target requires an azimuth")


@dataclass(frozen=True, eq=False)
class Labels:
    """A batch of targets as arrays: ``class_id`` (B,) int, 0 = background,
    and ``azimuth`` (B,) float, NaN exactly on background rows.

    Validated once for the whole batch with the rules of :class:`Target`;
    foreground azimuths must also be finite.
    """

    class_id: np.ndarray
    azimuth: np.ndarray

    def __post_init__(self):
        cls = np.asarray(self.class_id)
        az = np.asarray(self.azimuth, dtype=float)
        if cls.ndim != 1 or az.shape != cls.shape or cls.dtype.kind not in "iu":
            raise LayoutError(
                f"labels need (B,) integer class ids and (B,) azimuths, "
                f"got {cls.dtype} {cls.shape} and {az.shape}"
            )
        object.__setattr__(self, "class_id", cls)
        object.__setattr__(self, "azimuth", az)
        background = cls == 0
        bad = (background != np.isnan(az)) | np.isinf(az) | (cls < 0)
        if bad.any():
            i = int(np.argmax(bad))
            if cls[i] < 0:
                raise ClassOutOfRange(f"sample {i}: class_id must be >= 0, got {cls[i]}")
            if background[i]:
                raise LayoutError(f"sample {i}: background target must not carry an azimuth")
            if np.isnan(az[i]):
                raise LayoutError(f"sample {i}: foreground target requires an azimuth")
            raise InvalidAngle(f"sample {i}: azimuth must be finite, got {float(az[i])!r}")

    def __len__(self) -> int:
        return self.class_id.shape[0]


def as_labels(targets: Labels | Sequence[Target]) -> Labels:
    """The targets as one :class:`Labels` batch (returned as is if already one)."""
    if isinstance(targets, Labels):
        return targets
    return Labels(
        np.array([t.class_id for t in targets], dtype=int),
        np.array([np.nan if t.azimuth is None else t.azimuth for t in targets], dtype=float),
    )


@dataclass(frozen=True)
class JointRegOutputs:
    """Two-head layout: detection logits and per-class pose embeddings."""

    det: np.ndarray  # (B, n_classes + 1); background slot at column 0
    pose: np.ndarray  # (B, n_classes, dim)


@dataclass(frozen=True)
class JointClsOutputs:
    """Globally normalized layout: (class, bin) logits plus background."""

    obj: np.ndarray  # (B, n_classes, n_bins)
    back: np.ndarray  # (B,)


Grad = Union[np.ndarray, JointRegOutputs, JointClsOutputs]


@dataclass(frozen=True)
class LossResult:
    value: float
    grad: Grad


@dataclass(frozen=True)
class LossSpec:
    """A loss kind plus its knobs, as one value for training configs.

    ``sigma`` applies to the geometric loss (None picks the default),
    ``lam`` to joint regression, ``delta`` to both Huber losses.
    """

    kind: str
    sigma: float | None = None
    lam: float = 1.0
    delta: float = 1.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ConfigError(f"loss kind must be one of {LOSS_KINDS}, got {self.kind!r}")


def log_softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shift-stable log softmax."""
    z = np.asarray(z, dtype=float)
    m = np.max(z, axis=axis, keepdims=True)
    shifted = z - m
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    return np.exp(log_softmax(z, axis=axis))


def huber(residual, delta: float = 1.0):
    """Huber penalty and its derivative, elementwise.

    Quadratic ``r**2 / 2`` for ``|r| <= delta``, linear
    ``delta * (|r| - delta / 2)`` beyond; the derivative is ``r`` clipped
    to ``[-delta, delta]``.
    """
    if delta <= 0:
        raise InvalidParameter(f"huber delta must be positive, got {delta}")
    r = np.asarray(residual, dtype=float)
    small = np.abs(r) <= delta
    value = np.where(small, 0.5 * r * r, delta * (np.abs(r) - 0.5 * delta))
    deriv = np.clip(r, -delta, delta)
    if np.isscalar(residual) or np.ndim(residual) == 0:
        return float(value), float(deriv)
    return value, deriv


def default_geometric_sigma(n_bins: int) -> float:
    """Neighbor-weight scale for the geometric loss: 3 bins per 360 bins.

    Measured in bin steps, which coincides with degrees at 360 bins; for
    other bin counts the scale shrinks proportionally so the angular reach
    of the weighting stays the same.
    """
    return 3.0 * n_bins / 360.0


def _class_ids(labels: Labels, n_classes: int, background_error=None) -> np.ndarray:
    """Class ids, checked against the outputs' class count; with
    ``background_error``, background rows are rejected too."""
    cls = labels.class_id
    bad = cls > n_classes
    if background_error is not None:
        bad |= cls == 0
    if bad.any():
        i = int(np.argmax(bad))
        if cls[i] == 0:
            raise background_error(f"sample {i} is background")
        raise ClassOutOfRange(
            f"sample {i} has class {cls[i]} but outputs cover 1..{n_classes}"
        )
    return cls


def regression_loss(
    outputs: np.ndarray,
    targets: Labels | Sequence[Target],
    dim: int,
    delta: float = 1.0,
) -> LossResult:
    """Summed per-component Huber distance to the target pose embedding.

    Only the output row of each sample's own class is penalized; gradient
    rows for every other class are zero.
    """
    if dim not in (2, 3):
        raise InvalidParameter(f"embedding dim must be 2 or 3, got {dim}")
    labels = as_labels(targets)
    outputs = np.asarray(outputs, dtype=float)
    if outputs.ndim != 3 or outputs.shape[2] != dim:
        raise LayoutError(
            f"expected outputs (batch, n_classes, {dim}), got {outputs.shape}"
        )
    if outputs.shape[0] != len(labels):
        raise LayoutError(f"{outputs.shape[0]} outputs vs {len(labels)} targets")
    n = outputs.shape[0]
    cls = _class_ids(labels, outputs.shape[1], BackgroundInRegression)
    residual = outputs[np.arange(n), cls - 1] - encode(labels.azimuth, dim)
    value, deriv = huber(residual, delta)
    grad = np.zeros_like(outputs)
    grad[np.arange(n), cls - 1] = deriv
    return LossResult(float(np.sum(value)), grad)


def classification_loss(outputs: np.ndarray, targets: Labels | Sequence[Target]) -> LossResult:
    """Cross-entropy over the viewpoint bins of each sample's class row."""
    labels = as_labels(targets)
    outputs = np.asarray(outputs, dtype=float)
    if outputs.ndim != 3:
        raise LayoutError(f"expected outputs (batch, n_classes, n_bins), got {outputs.shape}")
    if outputs.shape[0] != len(labels):
        raise LayoutError(f"{outputs.shape[0]} outputs vs {len(labels)} targets")
    n, _, n_bins = outputs.shape
    cls = _class_ids(labels, outputs.shape[1], BackgroundInPoseLoss)
    bins = azimuth_to_bin(labels.azimuth, n_bins)
    rows = outputs[np.arange(n), cls - 1]
    logp = log_softmax(rows, axis=1)
    value = -float(np.sum(logp[np.arange(n), bins - 1]))
    row_grad = np.exp(logp)
    row_grad[np.arange(n), bins - 1] -= 1.0
    grad = np.zeros_like(outputs)
    grad[np.arange(n), cls - 1] = row_grad
    return LossResult(value, grad)


def geometric_classification_loss(
    outputs: np.ndarray,
    targets: Labels | Sequence[Target],
    sigma: float | None = None,
) -> LossResult:
    """Cross-entropy spread over neighboring bins with exp(-d/sigma) weights.

    ``d`` is the circular distance between bin centers, counted in bin
    steps.  ``sigma=None`` uses :func:`default_geometric_sigma`.  As
    ``sigma -> 0`` the weights collapse to the true-bin indicator and the
    loss reduces to :func:`classification_loss`.
    """
    labels = as_labels(targets)
    outputs = np.asarray(outputs, dtype=float)
    if outputs.ndim != 3:
        raise LayoutError(f"expected outputs (batch, n_classes, n_bins), got {outputs.shape}")
    if outputs.shape[0] != len(labels):
        raise LayoutError(f"{outputs.shape[0]} outputs vs {len(labels)} targets")
    n, _, n_bins = outputs.shape
    if sigma is None:
        sigma = default_geometric_sigma(n_bins)
    if sigma <= 0:
        raise InvalidParameter(f"sigma must be positive, got {sigma}")
    cls = _class_ids(labels, outputs.shape[1], BackgroundInPoseLoss)
    bins = azimuth_to_bin(labels.azimuth, n_bins)
    # (B, n_bins) circular step distances from each bin to the target bin.
    v = np.arange(1, n_bins + 1)
    d = np.abs(v[None, :] - bins[:, None])
    d = np.minimum(d, n_bins - d)
    weights = np.exp(-d / sigma)
    rows = outputs[np.arange(n), cls - 1]
    logp = log_softmax(rows, axis=1)
    value = -float(np.sum(weights * logp))
    p = np.exp(logp)
    row_grad = -weights + np.sum(weights, axis=1, keepdims=True) * p
    grad = np.zeros_like(outputs)
    grad[np.arange(n), cls - 1] = row_grad
    return LossResult(value, grad)


def joint_regression_loss(
    outputs: JointRegOutputs,
    targets: Labels | Sequence[Target],
    lam: float = 1.0,
    dim: int | None = None,
    delta: float = 1.0,
) -> LossResult:
    """Detection cross-entropy plus ``lam`` times the pose regression loss.

    The detection term runs over all samples (background at slot 0); the
    pose term only touches foreground samples' class rows.  ``dim``, when
    given, asserts the pose embedding dimensionality.
    """
    if lam < 0:
        raise InvalidParameter(f"lambda must be >= 0, got {lam}")
    labels = as_labels(targets)
    det = np.asarray(outputs.det, dtype=float)
    pose = np.asarray(outputs.pose, dtype=float)
    if det.ndim != 2 or pose.ndim != 3 or det.shape[1] != pose.shape[1] + 1:
        raise LayoutError(
            f"inconsistent joint regression layout: det {det.shape}, pose {pose.shape}"
        )
    if pose.shape[2] not in (2, 3) or (dim is not None and pose.shape[2] != dim):
        raise LayoutError(
            f"pose embedding dim must be {dim or '2 or 3'}, got {pose.shape[2]}"
        )
    if det.shape[0] != len(labels) or pose.shape[0] != len(labels):
        raise LayoutError(f"{det.shape[0]} outputs vs {len(labels)} targets")
    n, n_classes, dim = pose.shape
    cls = _class_ids(labels, n_classes)

    logp = log_softmax(det, axis=1)
    value = -float(np.sum(logp[np.arange(n), cls]))
    det_grad = np.exp(logp)
    det_grad[np.arange(n), cls] -= 1.0

    pose_grad = np.zeros_like(pose)
    fg = np.flatnonzero(cls > 0)
    if fg.size and lam != 0.0:
        residual = pose[fg, cls[fg] - 1] - encode(labels.azimuth[fg], dim)
        hval, hderiv = huber(residual, delta)
        value += lam * float(np.sum(hval))
        pose_grad[fg, cls[fg] - 1] = lam * hderiv
    return LossResult(value, JointRegOutputs(det=det_grad, pose=pose_grad))


def joint_classification_loss(
    outputs: JointClsOutputs, targets: Labels | Sequence[Target]
) -> LossResult:
    """Cross-entropy under one softmax over every (class, bin) slot plus
    the background slot.

    Unlike the per-class losses, the shared normalizer couples all slots:
    any slot's logit moves the loss for every sample.
    """
    labels = as_labels(targets)
    obj = np.asarray(outputs.obj, dtype=float)
    back = np.asarray(outputs.back, dtype=float)
    if obj.ndim != 3 or back.ndim != 1 or obj.shape[0] != back.shape[0]:
        raise LayoutError(
            f"inconsistent joint classification layout: obj {obj.shape}, back {back.shape}"
        )
    if obj.shape[0] != len(labels):
        raise LayoutError(f"{obj.shape[0]} outputs vs {len(labels)} targets")
    n, n_classes, n_bins = obj.shape
    cls = _class_ids(labels, n_classes)
    flat = np.concatenate([obj.reshape(n, -1), back[:, None]], axis=1)
    logp = log_softmax(flat, axis=1)
    slots = np.full(n, n_classes * n_bins)  # the appended background slot
    fg = np.flatnonzero(cls > 0)
    slots[fg] = (cls[fg] - 1) * n_bins + azimuth_to_bin(labels.azimuth[fg], n_bins) - 1
    value = -float(np.sum(logp[np.arange(n), slots]))
    flat_grad = np.exp(logp)
    flat_grad[np.arange(n), slots] -= 1.0
    return LossResult(
        value,
        JointClsOutputs(
            obj=flat_grad[:, :-1].reshape(n, n_classes, n_bins),
            back=flat_grad[:, -1].copy(),
        ),
    )


def joint_detection_score(obj: np.ndarray, back: float, class_id: int) -> float:
    """Detection score of one class: its share of the global softmax mass,
    summed over the class's viewpoint bins."""
    obj = np.asarray(obj, dtype=float)
    if obj.ndim != 2:
        raise LayoutError(f"expected a single (n_classes, n_bins) object block, got {obj.shape}")
    if not 1 <= class_id <= obj.shape[0]:
        raise ClassOutOfRange(f"class {class_id} outside 1..{obj.shape[0]}")
    scores = joint_detection_scores(JointClsOutputs(obj[None], np.array([back], dtype=float)))
    return float(scores[0, class_id - 1])


def joint_detection_scores(outputs: JointClsOutputs) -> np.ndarray:
    """Batched detection scores, shape (B, n_classes); rows sum with the
    background probability to 1."""
    obj = np.asarray(outputs.obj, dtype=float)
    back = np.asarray(outputs.back, dtype=float)
    m = np.maximum(np.max(obj, axis=(1, 2)), back)
    e = np.exp(obj - m[:, None, None])
    denom = np.exp(back - m) + np.sum(e, axis=(1, 2))
    return np.sum(e, axis=2) / denom[:, None]
