"""Training objectives for viewpoint estimation, with analytic gradients.

Every loss takes the raw head outputs for a batch plus the batch targets and
returns a :class:`LossResult` holding the summed loss value and its gradient
with respect to the outputs, laid out exactly like the outputs themselves.
The value is computed with the loss, the gradient on its first read, so a
caller that only needs values (a finite-difference check, a probe batch)
never computes one.  Batch reduction is a plain sum; callers that want a
per-sample figure divide by the batch size.

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

import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

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
    foreground azimuths must also be finite.  The arrays are read-only
    copies, so what a loss derives from them (bins per bin count,
    embeddings per dimension) is computed once per batch and kept.
    """

    class_id: np.ndarray
    azimuth: np.ndarray
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        cls = np.array(self.class_id)
        az = np.array(self.azimuth, dtype=float)
        if cls.ndim != 1 or az.shape != cls.shape or cls.dtype.kind not in "iu":
            raise LayoutError(
                f"labels need (B,) integer class ids and (B,) azimuths, "
                f"got {cls.dtype} {cls.shape} and {az.shape}"
            )
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
        self._set(cls, az)

    @classmethod
    def _of_valid_rows(cls, class_id: np.ndarray, azimuth: np.ndarray) -> "Labels":
        """Labels that take ownership of arrays whose rows were already
        checked where they entered (``net.Pool`` rows), without copying
        or checking them again."""
        labels = object.__new__(cls)
        object.__setattr__(labels, "_derived", {})
        labels._set(class_id, azimuth)
        return labels

    def _set(self, class_id: np.ndarray, azimuth: np.ndarray) -> None:
        class_id.flags.writeable = False
        azimuth.flags.writeable = False
        object.__setattr__(self, "class_id", class_id)
        object.__setattr__(self, "azimuth", azimuth)

    def __len__(self) -> int:
        return self.class_id.shape[0]

    def bins(self, n_bins: int) -> np.ndarray:
        """1-based bin of each row's azimuth among ``n_bins``, 0 on
        background rows; derived once per bin count."""
        key = ("bins", n_bins)
        out = self._derived.get(key)
        if out is None:
            if np.minimum.reduce(self.class_id, initial=1) > 0:  # no background rows
                out = azimuth_to_bin(self.azimuth, n_bins)
            else:
                fg = self.class_id > 0
                out = np.zeros(len(self), dtype=int)
                out[fg] = azimuth_to_bin(self.azimuth[fg], n_bins)
            out.flags.writeable = False
            self._derived[key] = out
        return out

    def embeddings(self, dim: int) -> np.ndarray:
        """(B, dim) pose embedding of each row's azimuth, NaN on
        background rows; derived once per dimension."""
        key = ("embeddings", dim)
        out = self._derived.get(key)
        if out is None:
            out = encode(self.azimuth, dim)
            out.flags.writeable = False
            self._derived[key] = out
        return out


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
    """Globally normalized layout: (class, bin) logits plus background.

    ``flat`` is the same batch as the (B, n_classes * n_bins + 1) rows the
    softmax normalizes, slots first and background last.  Made by
    :meth:`from_flat`, ``obj`` and ``back`` are views of such rows (a head
    output or a loss gradient) and nothing is copied; otherwise ``flat``
    is assembled from them at every read.
    """

    obj: np.ndarray  # (B, n_classes, n_bins)
    back: np.ndarray  # (B,)

    @classmethod
    def from_flat(cls, flat: np.ndarray, n_classes: int, n_bins: int) -> "JointClsOutputs":
        out = cls(flat[:, :-1].reshape(flat.shape[0], n_classes, n_bins), flat[:, -1])
        object.__setattr__(out, "_flat", flat)
        return out

    @property
    def flat(self) -> np.ndarray:
        flat = self.__dict__.get("_flat")
        if flat is None:
            obj = np.asarray(self.obj, dtype=float)
            back = np.asarray(self.back, dtype=float)
            flat = np.concatenate([obj.reshape(obj.shape[0], -1), back[:, None]], axis=1)
        return flat


Grad = Union[np.ndarray, JointRegOutputs, JointClsOutputs]


class LossResult:
    """A summed loss value and its gradient with respect to the outputs.

    ``value`` is computed with the loss.  A loss built with
    :meth:`deferred` computes ``grad`` on its first read, from a closure
    over arrays the loss itself computed, and keeps it; the same reads of
    the same arrays give the same bits as computing it eagerly.
    """

    __slots__ = ("value", "_grad", "_make_grad")

    def __init__(self, value: float, grad: Grad):
        self.value = value
        self._grad = grad
        self._make_grad = None

    @classmethod
    def deferred(cls, value: float, make_grad: Callable[[], Grad]) -> "LossResult":
        """A result whose gradient ``make_grad()`` computes on first read."""
        res = cls(value, None)
        res._make_grad = make_grad
        return res

    @property
    def grad(self) -> Grad:
        if self._make_grad is not None:
            self._grad = self._make_grad()
            self._make_grad = None
        return self._grad

    def __repr__(self) -> str:
        return f"LossResult(value={self.value!r}, grad={self.grad!r})"


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


def log_softmax(z: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Shift-stable log softmax, written into ``out`` if one is given."""
    z = np.asarray(z, dtype=float)
    shifted = np.subtract(z, np.maximum.reduce(z, axis=axis, keepdims=True), out=out)
    lse = np.add.reduce(np.exp(shifted), axis=axis, keepdims=True)
    shifted -= np.log(lse, out=lse)
    return shifted


def softmax(z: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax, written into ``out`` if one is given."""
    return np.exp(log_softmax(z, axis=axis, out=out), out=out)


def huber(residual, delta: float = 1.0):
    """Huber penalty and its derivative, elementwise.

    Quadratic ``r**2 / 2`` for ``|r| <= delta``, linear
    ``delta * (|r| - delta / 2)`` beyond; the derivative is ``r`` clipped
    to ``[-delta, delta]``.
    """
    r = np.asarray(residual, dtype=float)
    value = _huber_value(r, delta)
    deriv = _huber_deriv(r, delta)
    if r.ndim == 0:
        return float(value), float(deriv)
    return value, deriv


def _huber_value(r: np.ndarray, delta: float) -> np.ndarray:
    if delta <= 0:
        raise InvalidParameter(f"huber delta must be positive, got {delta}")
    mag = np.abs(r)
    return np.where(mag <= delta, 0.5 * r * r, delta * (mag - 0.5 * delta))


def _huber_deriv(r: np.ndarray, delta: float) -> np.ndarray:
    # np.clip's value, bit for bit, without its Python-level dispatch
    return np.minimum(np.maximum(r, -delta), delta)


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
    lowest = 0 if background_error is None else 1
    if (
        np.maximum.reduce(cls, initial=lowest) <= n_classes
        and np.minimum.reduce(cls, initial=n_classes) >= lowest
    ):
        return cls
    bad = cls > n_classes
    if background_error is not None:
        bad |= cls == 0
    i = int(np.argmax(bad))
    if cls[i] == 0:
        raise background_error(f"sample {i} is background")
    raise ClassOutOfRange(f"sample {i} has class {cls[i]} but outputs cover 1..{n_classes}")


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
    cls = _class_ids(labels, outputs.shape[1], BackgroundInRegression)
    own = (np.arange(outputs.shape[0]), cls - 1)
    r = outputs[own] - labels.embeddings(dim)
    value = float(np.add.reduce(_huber_value(r, delta), axis=None))
    shape = outputs.shape

    def grad():
        out = np.zeros(shape)
        out[own] = _huber_deriv(r, delta)
        return out

    return LossResult.deferred(value, grad)


def classification_loss(outputs: np.ndarray, targets: Labels | Sequence[Target]) -> LossResult:
    """Cross-entropy over the viewpoint bins of each sample's class row."""
    labels = as_labels(targets)
    outputs = np.asarray(outputs, dtype=float)
    if outputs.ndim != 3:
        raise LayoutError(f"expected outputs (batch, n_classes, n_bins), got {outputs.shape}")
    if outputs.shape[0] != len(labels):
        raise LayoutError(f"{outputs.shape[0]} outputs vs {len(labels)} targets")
    n, n_classes, n_bins = outputs.shape
    cls = _class_ids(labels, n_classes, BackgroundInPoseLoss)
    rows = np.arange(n)
    own = (rows, cls - 1)
    true_bin = (rows, labels.bins(n_bins) - 1)
    logp = log_softmax(outputs[own], axis=1)
    value = -float(np.add.reduce(logp[true_bin], axis=None))
    shape = outputs.shape

    def grad():
        row_grad = np.exp(logp)
        row_grad[true_bin] -= 1.0
        out = np.zeros(shape)
        out[own] = row_grad
        return out

    return LossResult.deferred(value, grad)


@functools.lru_cache(maxsize=64)
def _geometric_weights(n_bins: int, sigma: float) -> np.ndarray:
    """(n_bins, n_bins) table of exp(-d / sigma), ``d`` the circular step
    distance between bins; row ``v - 1`` weighs the bins for true bin ``v``."""
    v = np.arange(1, n_bins + 1)
    d = np.abs(v[None, :] - v[:, None])
    d = np.minimum(d, n_bins - d)
    weights = np.exp(-d / sigma)
    weights.flags.writeable = False
    return weights


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
    n, n_classes, n_bins = outputs.shape
    if sigma is None:
        sigma = default_geometric_sigma(n_bins)
    if sigma <= 0:
        raise InvalidParameter(f"sigma must be positive, got {sigma}")
    cls = _class_ids(labels, n_classes, BackgroundInPoseLoss)
    weights = _geometric_weights(n_bins, float(sigma))[labels.bins(n_bins) - 1]
    own = (np.arange(n), cls - 1)
    logp = log_softmax(outputs[own], axis=1)
    value = -float(np.add.reduce(weights * logp, axis=None))
    shape = outputs.shape

    def grad():
        row_grad = np.add.reduce(weights, axis=1, keepdims=True) * np.exp(logp)
        row_grad -= weights
        out = np.zeros(shape)
        out[own] = row_grad
        return out

    return LossResult.deferred(value, grad)


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

    hit = (np.arange(n), cls)
    logp = log_softmax(det, axis=1)
    value = -float(np.add.reduce(logp[hit], axis=None))

    r = own = None
    if lam != 0.0:
        fg = (cls > 0).nonzero()[0]
        if fg.size:
            own = (fg, cls[fg] - 1)
            r = pose[own] - labels.embeddings(dim)[fg]
            value += lam * float(np.add.reduce(_huber_value(r, delta), axis=None))
    pose_shape = pose.shape

    def grad():
        det_grad = np.exp(logp)
        det_grad[hit] -= 1.0
        pose_grad = np.zeros(pose_shape)
        if r is not None:
            pose_grad[own] = lam * _huber_deriv(r, delta)
        return JointRegOutputs(det=det_grad, pose=pose_grad)

    return LossResult.deferred(value, grad)


def joint_classification_loss(
    outputs: JointClsOutputs, targets: Labels | Sequence[Target]
) -> LossResult:
    """Cross-entropy under one softmax over every (class, bin) slot plus
    the background slot.

    Unlike the per-class losses, the shared normalizer couples all slots:
    any slot's logit moves the loss for every sample.  The gradient comes
    back in the flat row layout (see :class:`JointClsOutputs`).
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
    logp = log_softmax(outputs.flat, axis=1)
    # a foreground sample's (class, bin) slot; background is the last slot
    slots = np.where(
        cls > 0, (cls - 1) * n_bins + labels.bins(n_bins) - 1, n_classes * n_bins
    )
    hit = (np.arange(n), slots)
    value = -float(np.add.reduce(logp[hit], axis=None))

    def grad():
        flat_grad = np.exp(logp)
        flat_grad[hit] -= 1.0
        return JointClsOutputs.from_flat(flat_grad, n_classes, n_bins)

    return LossResult.deferred(value, grad)


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
