"""Small fully-connected network trained from scratch on proposal features.

The trunk is a chain of affine+ReLU layers; heads are affine.  Four head
kinds cover the loss formulations:

- ``reg``: per-class pose embeddings, (B, n_classes, n_dims)
- ``cls``: per-class bin logits, (B, n_classes, n_bins)
- ``joint_reg``: two branches off a shared trunk prefix, a detection head
  over n_classes+1 logits (background first) and a pose head as in ``reg``
- ``joint_cls``: one head of n_classes*n_bins + 1 logits, class-bin slots
  first and the background slot last

Training is plain SGD with momentum, weight decay on weights only, and a
step learning-rate schedule.  Batches mix foreground and background
proposals with replacement; foreground samples are mirrored with
probability 1/2 by regenerating the feature at the flipped azimuth.
``make_batch`` returns the features and one ``losses.Labels`` batch,
assembled by array indexing from tables the ``Pool`` computes once.  All
randomness comes from seeded generators, so runs are bitwise
reproducible.  The training log measures loss on a fixed probe batch, so
it reflects parameter movement rather than batch sampling noise.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .angles import decode, flip_azimuth
from .errors import (
    AmbiguousDecode,
    ClassOutOfRange,
    ConfigError,
    DivergenceError,
    EmptyClassError,
    InvalidAngle,
    InvalidConfig,
    LayoutError,
)
from .losses import (
    JointClsOutputs,
    JointRegOutputs,
    Labels,
    LossResult,
    LossSpec,
    classification_loss,
    geometric_classification_loss,
    joint_classification_loss,
    joint_detection_scores,
    joint_regression_loss,
    regression_loss,
    softmax,
)
from .synthetic import ClassSpec, Dataset, appearance_clean

HEAD_KINDS = ("reg", "cls", "joint_reg", "joint_cls")

# loss kind -> head kind it trains
LOSS_HEADS = {
    "regression": "reg",
    "classification": "cls",
    "geometric": "cls",
    "joint_regression": "joint_reg",
    "joint_classification": "joint_cls",
}

POSE_ONLY_LOSSES = ("regression", "classification", "geometric")


def _check_integers(config, names: Sequence[str]) -> None:
    """Reject a bool or a non-integer (an integral float too) in the named
    fields of a config; a tuple field is checked item by item.  NumPy
    integers pass."""
    for name in names:
        value = getattr(config, name)
        many = isinstance(value, tuple)
        for v in value if many else (value,):
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                kind = "integers" if many else "an integer"
                raise InvalidConfig(f"{name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class NetConfig:
    input_dim: int
    trunk_widths: tuple[int, ...]
    head: str
    n_classes: int
    n_bins: int = 24
    n_dims: int = 3
    split_depth: int = 1
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "trunk_widths", tuple(self.trunk_widths))
        _check_integers(
            self, ("input_dim", "trunk_widths", "n_classes", "n_bins", "n_dims", "split_depth",
                   "seed"),
        )
        if self.input_dim < 1:
            raise InvalidConfig(f"input_dim must be >= 1, got {self.input_dim}")
        if any(w < 1 for w in self.trunk_widths):
            raise InvalidConfig(f"trunk widths must be >= 1, got {self.trunk_widths}")
        if self.head not in HEAD_KINDS:
            raise InvalidConfig(f"head must be one of {HEAD_KINDS}, got {self.head!r}")
        if self.n_classes < 1:
            raise InvalidConfig(f"n_classes must be >= 1, got {self.n_classes}")
        if self.n_bins < 2:
            raise InvalidConfig(f"n_bins must be >= 2, got {self.n_bins}")
        if self.n_dims not in (2, 3):
            raise InvalidConfig(f"n_dims must be 2 or 3, got {self.n_dims}")
        if self.head == "joint_reg" and not 0 <= self.split_depth <= len(self.trunk_widths):
            raise InvalidConfig(
                f"split_depth must be in [0, {len(self.trunk_widths)}], got {self.split_depth}"
            )


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.001
    momentum: float = 0.9
    weight_decay: float = 0.0005
    batch_size: int = 128
    positive_fraction: float = 0.25
    total_iters: int = 3000
    decay_at: tuple[int, ...] = (2000,)
    lr_decay_factor: float = 10.0
    flip_augment: bool = True
    log_every: int = 100
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "decay_at", tuple(self.decay_at))
        _check_integers(self, ("batch_size", "total_iters", "decay_at", "log_every", "seed"))
        if not (np.isfinite(self.lr) and self.lr >= 0.0):
            raise InvalidConfig(f"lr must be >= 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidConfig(f"momentum must be in [0, 1), got {self.momentum}")
        if not self.weight_decay >= 0.0:
            raise InvalidConfig(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.batch_size < 1:
            raise InvalidConfig(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.positive_fraction <= 1.0:
            raise InvalidConfig(
                f"positive_fraction must be in [0, 1], got {self.positive_fraction}"
            )
        if self.total_iters < 1:
            raise InvalidConfig(f"total_iters must be >= 1, got {self.total_iters}")
        if not self.lr_decay_factor > 0.0:
            raise InvalidConfig(f"lr_decay_factor must be > 0, got {self.lr_decay_factor}")
        if self.log_every < 1:
            raise InvalidConfig(f"log_every must be >= 1, got {self.log_every}")
        if any(m < 0 for m in self.decay_at):
            raise InvalidConfig(f"decay milestones must be >= 0, got {self.decay_at}")


@dataclass
class Dense:
    w: np.ndarray
    b: np.ndarray
    vw: np.ndarray
    vb: np.ndarray


@dataclass
class ModelParams:
    """Ordered mapping of layer name to parameters, plus momentum state."""

    layers: dict[str, Dense]

    @property
    def n_params(self) -> int:
        return sum(layer.w.size + layer.b.size for layer in self.layers.values())

    def copy(self) -> "ModelParams":
        return ModelParams(
            {
                name: Dense(l.w.copy(), l.b.copy(), l.vw.copy(), l.vb.copy())
                for name, l in self.layers.items()
            }
        )

    def all_finite(self) -> bool:
        return all(
            np.all(np.isfinite(l.w)) and np.all(np.isfinite(l.b))
            for l in self.layers.values()
        )


def head_width(cfg: NetConfig) -> int:
    if cfg.head == "reg":
        return cfg.n_classes * cfg.n_dims
    if cfg.head == "cls":
        return cfg.n_classes * cfg.n_bins
    return cfg.n_classes * cfg.n_bins + 1  # joint_cls


def layer_plan(cfg: NetConfig) -> list[tuple[str, int, int]]:
    """(name, fan_in, fan_out) in definition order, which is also the
    parameter initialization draw order."""
    widths = cfg.trunk_widths
    plan = []
    if cfg.head == "joint_reg":
        s = cfg.split_depth
        d = cfg.input_dim
        for i in range(s):
            plan.append((f"trunk{i}", d, widths[i]))
            d = widths[i]
        split_dim = d
        for i in range(s, len(widths)):
            plan.append((f"det{i - s}", d, widths[i]))
            d = widths[i]
        plan.append(("det_head", d, cfg.n_classes + 1))
        d = split_dim
        for i in range(s, len(widths)):
            plan.append((f"pose{i - s}", d, widths[i]))
            d = widths[i]
        plan.append(("pose_head", d, cfg.n_classes * cfg.n_dims))
        return plan
    d = cfg.input_dim
    for i, w in enumerate(widths):
        plan.append((f"trunk{i}", d, w))
        d = w
    plan.append(("head", d, head_width(cfg)))
    return plan


def init_params(cfg: NetConfig) -> ModelParams:
    """Weights N(0, 1/sqrt(fan_in)), biases zero, momentum zero."""
    rng = np.random.default_rng(cfg.seed)
    layers = {}
    for name, fan_in, fan_out in layer_plan(cfg):
        w = rng.normal(0.0, 1.0 / math.sqrt(fan_in), (fan_in, fan_out))
        layers[name] = Dense(w, np.zeros(fan_out), np.zeros_like(w), np.zeros(fan_out))
    return ModelParams(layers)


@functools.lru_cache(maxsize=64)
def _chains(cfg: NetConfig) -> tuple[tuple[str, ...], ...]:
    """Layer names of the net's chains, input side first: ``(trunk +
    head,)``, or for ``joint_reg`` ``(shared trunk, det branch + det_head,
    pose branch + pose_head)``.  Resolved once per config."""
    n = len(cfg.trunk_widths)
    if cfg.head != "joint_reg":
        return (tuple(f"trunk{i}" for i in range(n)) + ("head",),)
    s = cfg.split_depth
    return (
        tuple(f"trunk{i}" for i in range(s)),
        tuple(f"det{i}" for i in range(n - s)) + ("det_head",),
        tuple(f"pose{i}" for i in range(n - s)) + ("pose_head",),
    )


def _chain(
    layers: dict[str, Dense],
    names: Sequence[str],
    a: np.ndarray,
    cache: dict | None,
    head: bool,
) -> np.ndarray:
    """Affine+ReLU chain, the last layer affine only if it is a ``head``.
    Records each layer's input in the cache; a ReLU output doubles as the
    mask that backward() needs, so no preactivation is kept."""
    last = len(names) - 1
    for i, name in enumerate(names):
        if cache is not None:
            cache[name] = a
        layer = layers[name]
        z = a @ layer.w
        z += layer.b
        if i < last or not head:
            np.maximum(z, 0.0, out=z)
        a = z
    return a


def forward(
    params: ModelParams,
    cfg: NetConfig,
    x: np.ndarray,
    want_cache: bool = False,
):
    """Head outputs for a batch of feature rows.

    Returns the outputs alone, or (outputs, cache) with ``want_cache``;
    the cache feeds backward() without recomputing activations.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != cfg.input_dim:
        raise LayoutError(f"expected (B, {cfg.input_dim}) input, got {x.shape}")
    cache: dict | None = {} if want_cache else None
    layers = params.layers
    b = x.shape[0]
    if cfg.head == "joint_reg":
        shared, det_names, pose_names = _chains(cfg)
        a = _chain(layers, shared, x, cache, head=False)
        det = _chain(layers, det_names, a, cache, head=True)
        pose = _chain(layers, pose_names, a, cache, head=True)
        out = JointRegOutputs(det, pose.reshape(b, cfg.n_classes, cfg.n_dims))
    else:
        (names,) = _chains(cfg)
        raw = _chain(layers, names, x, cache, head=True)
        if cfg.head == "reg":
            out = raw.reshape(b, cfg.n_classes, cfg.n_dims)
        elif cfg.head == "cls":
            out = raw.reshape(b, cfg.n_classes, cfg.n_bins)
        else:  # joint_cls: class-bin slots first, background logit last
            out = JointClsOutputs.from_flat(raw, cfg.n_classes, cfg.n_bins)
    if want_cache:
        return out, cache
    return out


def _back_chain(
    layers: dict[str, Dense],
    names: Sequence[str],
    delta: np.ndarray,
    cache: dict,
    grads: dict,
    out: np.ndarray | None,
    input_grad: bool,
) -> np.ndarray | None:
    """Backprop through a chain; returns the delta at its input, or None
    without ``input_grad`` (the chain reads ``x``, so nothing needs it).

    ``out`` is the chain's ReLU output, or None if it ends in a head.  The
    ReLU mask is applied in place, on deltas this function computed, never
    on the caller's ``delta``."""
    for i in range(len(names) - 1, -1, -1):
        name = names[i]
        a_in = cache[name]
        if out is not None:
            np.multiply(delta, out > 0.0, out=delta)
        grads[name] = (a_in.T @ delta, np.add.reduce(delta, axis=0))
        if i == 0 and not input_grad:
            return None
        delta = delta @ layers[name].w.T
        out = a_in
    return delta


def backward(
    params: ModelParams,
    cfg: NetConfig,
    x: np.ndarray,
    out_grad,
    cache: dict | None = None,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Parameter gradients given the loss gradient at the head outputs.

    ``out_grad`` mirrors the forward output structure.  Without a cache
    the forward pass is recomputed.
    """
    if cache is None:
        _, cache = forward(params, cfg, x, want_cache=True)
    grads: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    layers = params.layers
    b = np.asarray(x).shape[0]
    if cfg.head == "joint_reg":
        shared, det_names, pose_names = _chains(cfg)
        # with no shared trunk both branches read x
        split = bool(shared)
        d_det = _back_chain(layers, det_names, out_grad.det, cache, grads, None, split)
        d_pose = _back_chain(
            layers, pose_names, out_grad.pose.reshape(b, -1), cache, grads, None, split
        )
        if split:
            _back_chain(
                layers, shared, d_det + d_pose, cache, grads, cache[det_names[0]], False
            )
        return grads
    if cfg.head == "joint_cls":
        flat = out_grad.flat
    else:
        flat = out_grad.reshape(b, -1)
    (names,) = _chains(cfg)
    _back_chain(layers, names, flat, cache, grads, None, False)
    return grads


def effective_lr(tcfg: TrainConfig, iteration: int) -> float:
    """Step schedule: the base rate divided by the decay factor once per
    milestone already reached (iterations are 0-based)."""
    k = sum(1 for m in tcfg.decay_at if iteration >= m)
    return tcfg.lr / tcfg.lr_decay_factor**k


def sgd_step(
    params: ModelParams,
    grads: dict[str, tuple[np.ndarray, np.ndarray]],
    tcfg: TrainConfig,
    iteration: int,
) -> None:
    """In-place momentum SGD update.  Weight decay applies to weights
    only, never biases, and enters through the velocity:
    v <- momentum*v + g + wd*w;  w <- w - lr_t*v.  The arrays of
    ``params`` are updated in place, in that order of operations."""
    lr = effective_lr(tcfg, iteration)
    momentum, decay = tcfg.momentum, tcfg.weight_decay
    for name, (dw, db) in grads.items():
        layer = params.layers[name]
        vw, vb = layer.vw, layer.vb
        vw *= momentum
        vw += dw
        vw += decay * layer.w
        layer.w -= lr * vw
        vb *= momentum
        vb += db
        layer.b -= lr * vb


@dataclass(frozen=True, eq=False)
class Pool:
    """Flattened view of a dataset's proposals for batch sampling.

    Construction checks the rows once, so the batches drawn from them need
    no checks: foreground rows have a class id >= 1 and a finite azimuth.
    It also tabulates, per foreground row, what a flip needs: the
    mirrored azimuth, the class's noiseless feature at that azimuth and
    the class's noise scale.  Rows of a class without a spec get NaN
    there and cannot be flipped.
    """

    fg_features: np.ndarray
    fg_class: np.ndarray
    fg_azimuth: np.ndarray
    bg_features: np.ndarray
    specs: dict[int, ClassSpec]
    fg_flip_azimuth: np.ndarray = field(init=False, repr=False)
    fg_flip_clean: np.ndarray = field(init=False, repr=False)
    fg_noise_sigma: np.ndarray = field(init=False, repr=False)
    # whether some foreground row cannot be flipped
    has_unflippable: bool = field(init=False, repr=False)

    def __post_init__(self):
        fg = np.asarray(self.fg_features, dtype=float)
        bg = np.asarray(self.bg_features, dtype=float)
        cls = np.asarray(self.fg_class)
        az = np.asarray(self.fg_azimuth, dtype=float)
        if fg.ndim != 2 or bg.ndim != 2 or bg.shape[1] != fg.shape[1]:
            raise LayoutError(
                f"pool features must be two (rows, dim) arrays, got {fg.shape} and {bg.shape}"
            )
        n, d = fg.shape
        if cls.shape != (n,) or az.shape != (n,) or cls.dtype.kind not in "iu":
            raise LayoutError(
                f"pool needs ({n},) integer class ids and ({n},) azimuths, "
                f"got {cls.dtype} {cls.shape} and {az.shape}"
            )
        bad = (cls < 1) | ~np.isfinite(az)
        if bad.any():
            i = int(np.argmax(bad))
            if cls[i] < 1:
                raise ClassOutOfRange(f"foreground row {i}: class_id must be >= 1, got {cls[i]}")
            raise InvalidAngle(f"foreground row {i}: azimuth must be finite, got {float(az[i])!r}")
        flip_az = flip_azimuth(az)
        clean = np.full((n, d), np.nan)
        sigma = np.full(n, np.nan)
        for i, (cid, theta) in enumerate(zip(cls.tolist(), flip_az.tolist())):
            spec = self.specs.get(cid)
            if spec is None:
                continue
            if spec.feature_dim != d:
                raise LayoutError(
                    f"class {cid} has feature_dim {spec.feature_dim}, pool rows have {d}"
                )
            clean[i] = appearance_clean(spec, theta)
            sigma[i] = spec.noise_sigma
        for name, value in (
            ("fg_features", fg),
            ("fg_class", cls.astype(int, copy=False)),
            ("fg_azimuth", az),
            ("bg_features", bg),
            ("fg_flip_azimuth", flip_az),
            ("fg_flip_clean", clean),
            ("fg_noise_sigma", sigma),
            ("has_unflippable", bool(np.isnan(sigma).any())),
        ):
            object.__setattr__(self, name, value)


def build_pool(dataset: Dataset) -> Pool:
    fg_feat, fg_cls, fg_az, bg_feat = [], [], [], []
    for scene in dataset.scenes:
        for prop in scene.proposals:
            if prop.is_background:
                bg_feat.append(prop.feature)
            else:
                g = scene.gts[prop.matched_gt]
                fg_feat.append(prop.feature)
                fg_cls.append(g.class_id)
                fg_az.append(g.azimuth)
    d = dataset.feature_dim
    return Pool(
        fg_features=np.array(fg_feat).reshape(-1, d),
        fg_class=np.array(fg_cls, dtype=int),
        fg_azimuth=np.array(fg_az, dtype=float),
        bg_features=np.array(bg_feat).reshape(-1, d),
        specs={s.class_id: s for s in dataset.class_specs},
    )


def make_batch(
    pool: Pool,
    tcfg: TrainConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, Labels]:
    """Sample one training batch: ceil(positive_fraction * batch_size)
    foreground rows then background rows, both with replacement.

    With flip_augment each foreground draw is mirrored with probability
    1/2: the target azimuth is reflected and the feature is regenerated
    from the class appearance model at the mirrored azimuth with fresh
    noise.  The noise of all flipped rows of noisy classes is one
    ``(k, feature_dim)`` draw, row by row the same numbers as one draw per
    flipped row.  Backgrounds are rotation-free, so flipping leaves them
    alone.  The rows were checked when the pool was built, so the labels
    are not checked again.
    """
    n_fg = math.ceil(tcfg.positive_fraction * tcfg.batch_size)
    n_bg = tcfg.batch_size - n_fg
    if n_fg > 0 and pool.fg_features.shape[0] == 0:
        raise EmptyClassError("batch needs foreground samples but the pool has none")
    if n_bg > 0 and pool.bg_features.shape[0] == 0:
        raise EmptyClassError("batch needs background samples but the pool has none")
    if n_fg > 0:
        idx = rng.integers(0, pool.fg_features.shape[0], n_fg)
        fg_x = pool.fg_features.take(idx, axis=0)
        fg_az = pool.fg_azimuth[idx]
        if tcfg.flip_augment:
            rows = (rng.random(n_fg) < 0.5).nonzero()[0]
            src = idx[rows]
            sigma = pool.fg_noise_sigma[src]
            if pool.has_unflippable and np.isnan(sigma).any():
                cid = pool.fg_class[src[np.argmax(np.isnan(sigma))]]
                raise ConfigError(f"flip_augment needs class {cid}'s spec, which the pool lacks")
            flip_x = pool.fg_flip_clean.take(src, axis=0)
            noisy = (sigma > 0.0).nonzero()[0]
            noise = rng.standard_normal((noisy.size, flip_x.shape[1]))
            noise *= sigma[noisy, None]
            flip_x[noisy] += noise
            fg_x[rows] = flip_x
            fg_az[rows] = pool.fg_flip_azimuth[src]
        if n_bg == 0:
            return fg_x, Labels._of_valid_rows(pool.fg_class[idx], fg_az)
    bg_x = pool.bg_features.take(rng.integers(0, pool.bg_features.shape[0], n_bg), axis=0)
    cls = np.zeros(n_bg + n_fg, dtype=int)
    az = np.full(n_bg + n_fg, np.nan)
    if n_fg == 0:
        return bg_x, Labels._of_valid_rows(cls, az)
    cls[:n_fg] = pool.fg_class[idx]
    az[:n_fg] = fg_az
    return np.concatenate([fg_x, bg_x]), Labels._of_valid_rows(cls, az)


def _loss_fn(spec: LossSpec, cfg: NetConfig) -> Callable[[object, Labels], LossResult]:
    kind = spec.kind
    if kind == "regression":
        return lambda o, t: regression_loss(o, t, dim=cfg.n_dims, delta=spec.delta)
    if kind == "classification":
        return classification_loss
    if kind == "geometric":
        return lambda o, t: geometric_classification_loss(o, t, sigma=spec.sigma)
    if kind == "joint_regression":
        return lambda o, t: joint_regression_loss(
            o, t, lam=spec.lam, dim=cfg.n_dims, delta=spec.delta
        )
    return joint_classification_loss


@dataclass(frozen=True)
class LogEntry:
    iteration: int
    lr: float
    loss: float
    loss_per_sample: float


@dataclass
class TrainResult:
    params: ModelParams
    log: list[LogEntry]


def train(
    dataset: Dataset | Pool,
    cfg: NetConfig,
    tcfg: TrainConfig,
    loss: LossSpec | str,
    callback: Callable[[int, ModelParams, float], None] | None = None,
) -> TrainResult:
    """Seeded SGD training of a fresh network on a dataset's proposals.

    The loss must match the head kind.  Pose-only losses cannot digest
    background rows, so they require positive_fraction == 1.  The log
    holds probe-batch loss every log_every iterations (and at the last);
    identical seeds give bitwise identical parameters and logs.  A
    non-finite batch loss aborts with DivergenceError carrying the
    iteration.

    Every step updates the arrays of the parameters in place: the
    ``params`` a callback receives are the live ones, so a callback that
    keeps them past its return must copy them (``params.copy()``).
    """
    if isinstance(loss, str):
        loss = LossSpec(loss)
    if loss.kind not in LOSS_HEADS:
        raise ConfigError(f"unknown loss kind {loss.kind!r}")
    if LOSS_HEADS[loss.kind] != cfg.head:
        raise ConfigError(
            f"loss {loss.kind!r} trains a {LOSS_HEADS[loss.kind]!r} head, "
            f"but the net has {cfg.head!r}"
        )
    if loss.kind in POSE_ONLY_LOSSES and tcfg.positive_fraction < 1.0:
        raise ConfigError(
            f"loss {loss.kind!r} has no background term; "
            f"set positive_fraction=1, got {tcfg.positive_fraction}"
        )
    pool = dataset if isinstance(dataset, Pool) else build_pool(dataset)
    fn = _loss_fn(loss, cfg)
    params = init_params(cfg)
    batch_rng = np.random.default_rng([tcfg.seed, 0])
    probe_rng = np.random.default_rng([tcfg.seed, 1])
    probe_x, probe_t = make_batch(
        pool, dataclasses.replace(tcfg, flip_augment=False), probe_rng
    )
    log: list[LogEntry] = []
    for t in range(tcfg.total_iters):
        if t % tcfg.log_every == 0 or t == tcfg.total_iters - 1:
            probe = fn(forward(params, cfg, probe_x), probe_t)
            log.append(
                LogEntry(t, effective_lr(tcfg, t), probe.value, probe.value / len(probe_t))
            )
        x, labels = make_batch(pool, tcfg, batch_rng)
        out, cache = forward(params, cfg, x, want_cache=True)
        res = fn(out, labels)
        if not math.isfinite(res.value):
            raise DivergenceError(f"non-finite loss {res.value}", iteration=t)
        grads = backward(params, cfg, x, res.grad, cache)
        sgd_step(params, grads, tcfg, t)
        if callback is not None:
            callback(t, params, res.value)
    if not params.all_finite():
        raise DivergenceError("non-finite parameters after final step")
    return TrainResult(params, log)


@dataclass(frozen=True)
class RegPrediction:
    """Decoded azimuth per (sample, class); degenerate embeddings whose
    circle projection vanishes decode to azimuth 0."""

    angles: np.ndarray  # (B, n_classes)
    embeddings: np.ndarray  # (B, n_classes, n_dims)


@dataclass(frozen=True)
class ClsPrediction:
    bins: np.ndarray  # (B, n_classes), 1-based argmax bin
    probs: np.ndarray  # (B, n_classes, n_bins) per-class softmax


@dataclass(frozen=True)
class JointRegPrediction:
    det_probs: np.ndarray  # (B, n_classes + 1), background column first
    angles: np.ndarray  # (B, n_classes)
    embeddings: np.ndarray


@dataclass(frozen=True)
class JointClsPrediction:
    scores: np.ndarray  # (B, n_classes) marginal detection scores
    bins: np.ndarray  # (B, n_classes)
    probs: np.ndarray  # (B, n_classes, n_bins) pose posterior given class


def _decode_grid(emb: np.ndarray) -> np.ndarray:
    b, n_c, _ = emb.shape
    angles = np.zeros((b, n_c))
    for i in range(b):
        for c in range(n_c):
            try:
                angles[i, c] = decode(emb[i, c])
            except AmbiguousDecode:
                angles[i, c] = 0.0
    return angles


# Rows per block of the work after predict's forward pass; at least 2048,
# so that every batch of the experiments (1,013 rows at most) is one block.
PREDICT_BLOCK = 2048


def predict(params: ModelParams, cfg: NetConfig, x: np.ndarray):
    """Head-appropriate predictions for a batch of feature rows.

    The forward pass runs on the whole batch.  A matmul over a block of
    rows need not give the bits of those rows of the whole product: at
    the pipeline benchmark's shapes (OpenBLAS 0.3.31) 64- and 100-row
    blocks did not, nor did 2048-row blocks whose last block held 5 to 130
    rows, and no BLAS promises that any block size does.  The softmaxes,
    argmax and detection scores that follow it are row-wise, give the same
    bits in any block of rows, and run ``PREDICT_BLOCK`` rows at a time
    into preallocated outputs, so their temporaries are one block's, not
    the whole batch's; decoding goes one embedding at a time."""
    out = forward(params, cfg, x)
    if cfg.head == "reg":
        return RegPrediction(_decode_grid(out), out)
    blocks = [slice(lo, lo + PREDICT_BLOCK) for lo in range(0, len(x), PREDICT_BLOCK)]
    if cfg.head == "joint_reg":
        det_probs = np.empty(out.det.shape)
        for rows in blocks:
            softmax(out.det[rows], out=det_probs[rows])
        return JointRegPrediction(det_probs, _decode_grid(out.pose), out.pose)
    logits = out if cfg.head == "cls" else out.obj
    probs = np.empty(logits.shape)
    bins = np.empty(logits.shape[:2], dtype=np.intp)
    scores = np.empty(logits.shape[:2]) if cfg.head == "joint_cls" else None
    for rows in blocks:
        block = logits[rows]
        softmax(block.reshape(-1, cfg.n_bins), out=probs[rows].reshape(-1, cfg.n_bins))
        bins[rows] = np.argmax(block, axis=2) + 1
        if scores is not None:
            scores[rows] = joint_detection_scores(JointClsOutputs(block, out.back[rows]))
    if cfg.head == "cls":
        return ClsPrediction(bins, probs)
    return JointClsPrediction(scores, bins, probs)
