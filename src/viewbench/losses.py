"""Training objectives for viewpoint estimation, with analytic gradients.

Every loss takes the raw head outputs for a batch plus the batch targets and
returns a :class:`LossResult` holding the summed loss value and its gradient
with respect to the outputs, laid out exactly like the outputs themselves.
Batch reduction is a plain sum; callers that want a per-sample figure divide
by the batch size.

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

    @property
    def is_background(self) -> bool:
        return self.class_id == 0


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


def _foreground_ids(targets: Sequence[Target], n_classes: int, error_cls) -> np.ndarray:
    ids = np.empty(len(targets), dtype=int)
    for i, t in enumerate(targets):
        if t.is_background:
            raise error_cls(f"sample {i} is background")
        if t.class_id > n_classes:
            raise ClassOutOfRange(
                f"sample {i} has class {t.class_id} but outputs cover 1..{n_classes}"
            )
        ids[i] = t.class_id
    return ids


def _bins_of(targets: Sequence[Target], n_bins: int) -> np.ndarray:
    return np.array([azimuth_to_bin(t.azimuth, n_bins) for t in targets], dtype=int)


def _embeddings_of(targets: Sequence[Target], dim: int) -> np.ndarray:
    return np.stack([encode(t.azimuth, dim) for t in targets])


def regression_loss(
    outputs: np.ndarray,
    targets: Sequence[Target],
    dim: int,
    delta: float = 1.0,
) -> LossResult:
    """Summed per-component Huber distance to the target pose embedding.

    Only the output row of each sample's own class is penalized; gradient
    rows for every other class are zero.
    """
    if dim not in (2, 3):
        raise InvalidParameter(f"embedding dim must be 2 or 3, got {dim}")
    outputs = np.asarray(outputs, dtype=float)
    if outputs.ndim != 3 or outputs.shape[2] != dim:
        raise LayoutError(
            f"expected outputs (batch, n_classes, {dim}), got {outputs.shape}"
        )
    if outputs.shape[0] != len(targets):
        raise LayoutError(f"{outputs.shape[0]} outputs vs {len(targets)} targets")
    n = outputs.shape[0]
    cls = _foreground_ids(targets, outputs.shape[1], BackgroundInRegression)
    residual = outputs[np.arange(n), cls - 1] - _embeddings_of(targets, dim)
    value, deriv = huber(residual, delta)
    grad = np.zeros_like(outputs)
    grad[np.arange(n), cls - 1] = deriv
    return LossResult(float(np.sum(value)), grad)


def classification_loss(outputs: np.ndarray, targets: Sequence[Target]) -> LossResult:
    """Cross-entropy over the viewpoint bins of each sample's class row."""
    outputs = np.asarray(outputs, dtype=float)
    if outputs.ndim != 3:
        raise LayoutError(f"expected outputs (batch, n_classes, n_bins), got {outputs.shape}")
    if outputs.shape[0] != len(targets):
        raise LayoutError(f"{outputs.shape[0]} outputs vs {len(targets)} targets")
    n, _, n_bins = outputs.shape
    cls = _foreground_ids(targets, outputs.shape[1], BackgroundInPoseLoss)
    bins = _bins_of(targets, n_bins)
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
    targets: Sequence[Target],
    sigma: float | None = None,
) -> LossResult:
    """Cross-entropy spread over neighboring bins with exp(-d/sigma) weights.

    ``d`` is the circular distance between bin centers, counted in bin
    steps.  ``sigma=None`` uses :func:`default_geometric_sigma`.  As
    ``sigma -> 0`` the weights collapse to the true-bin indicator and the
    loss reduces to :func:`classification_loss`.
    """
    outputs = np.asarray(outputs, dtype=float)
    if outputs.ndim != 3:
        raise LayoutError(f"expected outputs (batch, n_classes, n_bins), got {outputs.shape}")
    if outputs.shape[0] != len(targets):
        raise LayoutError(f"{outputs.shape[0]} outputs vs {len(targets)} targets")
    n, _, n_bins = outputs.shape
    if sigma is None:
        sigma = default_geometric_sigma(n_bins)
    if sigma <= 0:
        raise InvalidParameter(f"sigma must be positive, got {sigma}")
    cls = _foreground_ids(targets, outputs.shape[1], BackgroundInPoseLoss)
    bins = _bins_of(targets, n_bins)
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
    targets: Sequence[Target],
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
    if det.shape[0] != len(targets) or pose.shape[0] != len(targets):
        raise LayoutError(f"{det.shape[0]} outputs vs {len(targets)} targets")
    n, n_classes, dim = pose.shape
    cls = np.empty(n, dtype=int)
    for i, t in enumerate(targets):
        if t.class_id > n_classes:
            raise ClassOutOfRange(
                f"sample {i} has class {t.class_id} but outputs cover 1..{n_classes}"
            )
        cls[i] = t.class_id

    logp = log_softmax(det, axis=1)
    value = -float(np.sum(logp[np.arange(n), cls]))
    det_grad = np.exp(logp)
    det_grad[np.arange(n), cls] -= 1.0

    pose_grad = np.zeros_like(pose)
    fg = np.flatnonzero(cls > 0)
    if fg.size and lam != 0.0:
        emb = np.stack([encode(targets[i].azimuth, dim) for i in fg])
        residual = pose[fg, cls[fg] - 1] - emb
        hval, hderiv = huber(residual, delta)
        value += lam * float(np.sum(hval))
        pose_grad[fg, cls[fg] - 1] = lam * hderiv
    return LossResult(value, JointRegOutputs(det=det_grad, pose=pose_grad))


def joint_classification_loss(
    outputs: JointClsOutputs, targets: Sequence[Target]
) -> LossResult:
    """Cross-entropy under one softmax over every (class, bin) slot plus
    the background slot.

    Unlike the per-class losses, the shared normalizer couples all slots:
    any slot's logit moves the loss for every sample.
    """
    obj = np.asarray(outputs.obj, dtype=float)
    back = np.asarray(outputs.back, dtype=float)
    if obj.ndim != 3 or back.ndim != 1 or obj.shape[0] != back.shape[0]:
        raise LayoutError(
            f"inconsistent joint classification layout: obj {obj.shape}, back {back.shape}"
        )
    if obj.shape[0] != len(targets):
        raise LayoutError(f"{obj.shape[0]} outputs vs {len(targets)} targets")
    n, n_classes, n_bins = obj.shape
    flat = np.concatenate([obj.reshape(n, -1), back[:, None]], axis=1)
    logp = log_softmax(flat, axis=1)
    slots = np.empty(n, dtype=int)
    for i, t in enumerate(targets):
        if t.is_background:
            slots[i] = n_classes * n_bins  # the appended background slot
        else:
            if t.class_id > n_classes:
                raise ClassOutOfRange(
                    f"sample {i} has class {t.class_id} but outputs cover 1..{n_classes}"
                )
            slots[i] = (t.class_id - 1) * n_bins + azimuth_to_bin(t.azimuth, n_bins) - 1
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
