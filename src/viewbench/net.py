"""Small fully-connected network trained from scratch on proposal features.

The trunk is a chain of affine+ReLU layers; heads are affine.  Four head
kinds cover the loss formulations; the formulation table
``losses.LOSS_HEADS`` names the head each loss trains, and ``HEAD_KINDS``
are its head kinds, in its order:

- ``reg``: per-class pose embeddings, (B, n_classes, n_dims)
- ``cls``: per-class bin logits, (B, n_classes, n_bins)
- ``joint_reg``: two branches off a shared trunk prefix, a detection head
  over n_classes+1 logits (background first) and a pose head as in ``reg``
- ``joint_cls``: one head of n_classes*n_bins + 1 logits, class-bin slots
  first and the background slot last

One cached function, ``_chains``, gives each chain's ``(name, fan_in,
fan_out)`` layers; ``layer_plan`` (initialization order, parameter and
checkpoint layout), ``forward`` and ``backward`` all read it.

Training is plain SGD with momentum, weight decay on weights only, and a
step learning-rate schedule.  A net's parameters, their momentum and
their gradient are three flat vectors (``ModelParams``), built from the
layer plan, weights first, and each layer's arrays are views into them:
``backward`` writes every layer's gradient into its slot and returns a
copy of the flat gradient, and ``sgd_step`` is one update of the
vectors, in place.  A caller that keeps parameters across steps copies
them.  A ``joint_reg`` branch whose loss gradient is all +0 (the pose
branch at ``lam=0``) is not back-propagated while its cached inputs and
weights are finite, which is when the full pass would give exactly +0.

Batches mix foreground and background proposals with replacement;
foreground samples are mirrored with probability 1/2 by regenerating the
feature at the flipped azimuth.  A ``Pool`` holds one feature table of
foreground rows, their noiseless mirrors and background rows, and a label
table of the same rows, whose bins or embeddings a training run derives
once (``losses.step_loss``).  ``make_batch`` draws one index array into both:
the features are those rows (a flipped row of a noisy class plus fresh
noise), and the labels ``losses.Labels`` of the same rows of the label
table.  All randomness comes from seeded generators, so runs are bitwise
reproducible.  The training log measures loss on a fixed probe batch, so
it reflects parameter movement rather than batch sampling noise.

``train`` computes once per run what every step would otherwise
recompute: the batch's foreground/background split, the net's chains,
the loss of its steps (``losses.step_loss``, which derives the label
columns the loss reads from the pool's label table), and the check of
the pool's class ids against the net.  A step then runs the cores that
the public functions wrap: ``_draw`` (``make_batch`` without its checks
and ``Labels`` batch), ``_outputs`` (``forward`` without its input check)
and the step loss, fed the batch's index; then ``backward`` and
``sgd_step``.  The public functions run on the probe batch, scored by
``losses.loss_function``, so each piece of the step has one
implementation, and each loss dispatch lives in ``losses`` beside the
cores it picks.  ``train`` refuses, before it builds the pool, a batch
whose arrays would pass ``MAX_BATCH_VALUES``.

``predict`` reads every head the same way, as one ``Prediction``: a
detection score and an azimuth per (row, class) hypothesis.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .angles import bin_center, decode, flip_azimuth
from .errors import (
    AmbiguousDecode,
    ClassOutOfRange,
    ConfigError,
    DivergenceError,
    EmptyClassError,
    InvalidAngle,
    InvalidConfig,
    LayoutError,
    check_integers,
)
from .losses import (
    LOSS_HEADS,
    POSE_ONLY_LOSSES,
    JointClsOutputs,
    JointRegOutputs,
    Labels,
    LossSpec,
    check_loss_head,
    joint_detection_scores,
    loss_function,
    softmax,
    step_loss,
)
from .synthetic import ClassSpec, Dataset, appearance_clean

# the head kinds of the formulation table, in its order
HEAD_KINDS = tuple(dict.fromkeys(LOSS_HEADS.values()))

# The most parameters (weights and biases) a net's layer plan may hold.
# A net read from a config or a checkpoint header sizes its parameter,
# momentum and gradient vectors by it, so an unchecked one could ask for
# any amount of memory.  The nets of the tests, demos, README and
# benchmark hold about 160,000 at most.
MAX_PARAMETERS = 2**24


def check_net_fields(
    trunk_widths: Sequence[int], head: str, n_bins: int, n_dims: int, split_depth: int
) -> None:
    """``NetConfig``'s checks of the fields that need no class
    roster, which a run config's ``net:`` section gets when it loads."""
    widths = tuple(trunk_widths)
    if any(w < 1 for w in widths):
        raise InvalidConfig(f"trunk widths must be >= 1, got {widths}")
    if head not in HEAD_KINDS:
        raise InvalidConfig(f"head must be one of {HEAD_KINDS}, got {head!r}")
    if n_bins < 2:
        raise InvalidConfig(f"n_bins must be >= 2, got {n_bins}")
    if n_dims not in (2, 3):
        raise InvalidConfig(f"n_dims must be 2 or 3, got {n_dims}")
    if head == "joint_reg" and not 0 <= split_depth <= len(widths):
        raise InvalidConfig(f"split_depth must be in [0, {len(widths)}], got {split_depth}")


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
        check_integers(
            self, ("input_dim", "trunk_widths", "n_classes", "n_bins", "n_dims", "split_depth",
                   "seed"), InvalidConfig,
        )
        if self.input_dim < 1:
            raise InvalidConfig(f"input_dim must be >= 1, got {self.input_dim}")
        if self.n_classes < 1:
            raise InvalidConfig(f"n_classes must be >= 1, got {self.n_classes}")
        check_net_fields(self.trunk_widths, self.head, self.n_bins, self.n_dims, self.split_depth)
        n = sum((fan_in + 1) * fan_out for _, fan_in, fan_out in layer_plan(self))
        if n > MAX_PARAMETERS:
            raise InvalidConfig(f"trunk_widths {list(self.trunk_widths)} and n_bins {self.n_bins} "
                                f"give {n} parameters; a net holds at most {MAX_PARAMETERS}")


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
        check_integers(
            self, ("batch_size", "total_iters", "decay_at", "log_every", "seed"), InvalidConfig
        )
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
            raise InvalidConfig(f"decay_at milestones must be >= 0, got {self.decay_at}")


@dataclass
class Dense:
    """One affine layer's weights, biases and their momentum: views into
    the vectors of the ``ModelParams`` that holds the layer, so they are
    updated in place, never rebound."""

    w: np.ndarray
    b: np.ndarray
    vw: np.ndarray
    vb: np.ndarray


class ModelParams:
    """A net's parameters and their momentum, laid out by its layer plan.

    ``plan`` is a :func:`layer_plan`, ``(name, fan_in, fan_out)`` per
    layer.  The parameters, their momentum and their gradient are three
    flat float64 vectors laid out alike: every layer's weights in plan
    order, then every layer's biases (``n_weights`` weights in all).
    ``values`` and ``velocity`` are the given vectors, held as they are,
    or zeros.  ``slots`` maps each layer to its ``(weights slice, weights
    shape, biases slice)``; each ``Dense`` array is a view into its slot of
    ``values`` or ``velocity``, and ``grads`` holds the ``(dw, db)`` views
    into ``grad`` that ``backward`` writes.
    """

    def __init__(
        self,
        plan: Sequence[tuple[str, int, int]],
        values: np.ndarray | None = None,
        velocity: np.ndarray | None = None,
    ):
        self.plan = list(plan)
        self.n_weights = sum(fan_in * fan_out for _, fan_in, fan_out in self.plan)
        n = self.n_weights + sum(fan_out for _, _, fan_out in self.plan)
        self.values = np.zeros(n) if values is None else values
        self.velocity = np.zeros(n) if velocity is None else velocity
        self.grad = np.zeros(n)
        self.slots: dict[str, tuple[slice, tuple[int, int], slice]] = {}
        self.layers: dict[str, Dense] = {}
        self.grads: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        w_at, b_at = 0, self.n_weights
        for name, fan_in, fan_out in self.plan:
            w = slice(w_at, w_at + fan_in * fan_out)
            b = slice(b_at, b_at + fan_out)
            w_at, b_at = w.stop, b.stop
            shape = (fan_in, fan_out)
            self.slots[name] = (w, shape, b)
            self.layers[name] = Dense(self.values[w].reshape(shape), self.values[b],
                                      self.velocity[w].reshape(shape), self.velocity[b])
            self.grads[name] = (self.grad[w].reshape(shape), self.grad[b])

    @property
    def n_params(self) -> int:
        return self.values.size

    def copy(self) -> "ModelParams":
        return ModelParams(self.plan, self.values.copy(), self.velocity.copy())

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.values).all())


# a chain of layers, input side first, each as (name, fan_in, fan_out)
Chain = tuple[tuple[str, int, int], ...]


@functools.lru_cache(maxsize=64)
def _chains(cfg: NetConfig) -> tuple[Chain, ...]:
    """The net's chains of ``(name, fan_in, fan_out)`` layers, input side
    first: ``(trunk + head,)``, or for ``joint_reg`` ``(shared trunk, det
    branch + det_head, pose branch + pose_head)``.  Resolved once per
    config."""

    def chain(prefix, widths, d, head=None):
        layers = []
        for i, w in enumerate(widths):
            layers.append((f"{prefix}{i}", d, w))
            d = w
        if head is not None:
            layers.append((head[0], d, head[1]))
        return tuple(layers)

    widths = cfg.trunk_widths
    bins, pose = cfg.n_classes * cfg.n_bins, cfg.n_classes * cfg.n_dims
    if cfg.head != "joint_reg":
        out = {"reg": pose, "cls": bins, "joint_cls": bins + 1}[cfg.head]
        return (chain("trunk", widths, cfg.input_dim, ("head", out)),)
    s = cfg.split_depth
    d = (cfg.input_dim, *widths)[s]  # the width where the branches split
    return (
        chain("trunk", widths[:s], cfg.input_dim),
        chain("det", widths[s:], d, ("det_head", cfg.n_classes + 1)),
        chain("pose", widths[s:], d, ("pose_head", pose)),
    )


def layer_plan(cfg: NetConfig) -> list[tuple[str, int, int]]:
    """(name, fan_in, fan_out) in definition order, the net's chains one
    after another, which is also the parameter initialization draw
    order."""
    return [layer for chain in _chains(cfg) for layer in chain]


def init_params(cfg: NetConfig) -> ModelParams:
    """Weights N(0, 1/sqrt(fan_in)), drawn layer by layer in plan order
    into each layer's slot; biases zero, momentum zero."""
    rng = np.random.default_rng(cfg.seed)
    params = ModelParams(layer_plan(cfg))
    for name, fan_in, fan_out in params.plan:
        params.layers[name].w[:] = rng.normal(0.0, 1.0 / math.sqrt(fan_in), (fan_in, fan_out))
    return params


def _chain(
    layers: dict[str, Dense],
    chain: Chain,
    a: np.ndarray,
    cache: dict | None,
    head: bool,
) -> np.ndarray:
    """Affine+ReLU chain (one of :func:`_chains`), the last layer affine
    only if it is a ``head``.  Records each layer's input in the cache; a
    ReLU output doubles as the mask that backward() needs, so no
    preactivation is kept."""
    last = len(chain) - 1
    for i, (name, _, _) in enumerate(chain):
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
    out = _outputs(params.layers, cfg, _chains(cfg), x, cache)
    if want_cache:
        return out, cache
    return out


def _outputs(
    layers: dict[str, Dense],
    cfg: NetConfig,
    chains: tuple[Chain, ...],
    x: np.ndarray,
    cache: dict | None,
):
    """The core of :func:`forward`: the head outputs of checked float
    input rows ``x`` through the net's ``chains``, recording each layer's
    input in ``cache`` if one is given."""
    b = x.shape[0]
    if cfg.head == "joint_reg":
        shared, det_chain, pose_chain = chains
        a = _chain(layers, shared, x, cache, head=False)
        det = _chain(layers, det_chain, a, cache, head=True)
        pose = _chain(layers, pose_chain, a, cache, head=True)
        return JointRegOutputs(det, pose.reshape(b, cfg.n_classes, cfg.n_dims))
    raw = _chain(layers, chains[0], x, cache, head=True)
    if cfg.head == "reg":
        return raw.reshape(b, cfg.n_classes, cfg.n_dims)
    if cfg.head == "cls":
        return raw.reshape(b, cfg.n_classes, cfg.n_bins)
    # joint_cls: class-bin slots first, background logit last
    return JointClsOutputs.from_flat(raw, cfg.n_classes, cfg.n_bins)


def _back_chain(
    layers: dict[str, Dense],
    chain: Chain,
    delta: np.ndarray,
    cache: dict,
    grads: dict,
    out: np.ndarray | None,
    input_grad: bool,
) -> np.ndarray | None:
    """Backprop through a chain, writing each layer's gradient into its
    ``grads`` slots; returns the delta at its input, or None without
    ``input_grad`` (the chain reads ``x``, so nothing needs it).

    ``out`` is the chain's ReLU output, or None if it ends in a head.  The
    ReLU mask is applied in place, on deltas this function computed, never
    on the caller's ``delta``."""
    for i in range(len(chain) - 1, -1, -1):
        name = chain[i][0]
        a_in = cache[name]
        if out is not None:
            np.multiply(delta, out > 0.0, out=delta)
        dw, db = grads[name]
        np.matmul(a_in.T, delta, out=dw)
        np.add.reduce(delta, axis=0, out=db)
        if i == 0 and not input_grad:
            return None
        delta = delta @ layers[name].w.T
        out = a_in
    return delta


def _provably_zero(
    layers: dict[str, Dense], chain: Chain, delta: np.ndarray, cache: dict
) -> bool:
    """Whether back-propagating ``delta`` through the head chain ``chain``
    gives exactly +0 everywhere: ``delta`` is all +0 (bit for bit), and
    every input the chain's layers cached and every one of their weights
    is finite, so that no 0 * inf or NaN can arise.  Then each product
    and sum on the way is +0, as is the delta at the chain's input."""
    if delta.dtype != np.float64 or delta.view(np.int64).any():
        return False
    return all(
        np.isfinite(cache[name]).all() and np.isfinite(layers[name].w).all()
        for name, _, _ in chain
    )


def backward(
    params: ModelParams,
    cfg: NetConfig,
    x: np.ndarray,
    out_grad,
    cache: dict | None = None,
) -> np.ndarray:
    """The flat parameter gradient given the loss gradient at the head
    outputs, laid out like ``params.values`` (by the net's layer plan).

    ``out_grad`` mirrors the forward output structure.  Without a cache
    the forward pass is recomputed.  Each layer's gradient is written into
    its slot of ``params.grad``, and the result is a copy of that vector,
    the caller's own.  A ``joint_reg`` branch whose loss gradient is all
    +0 (the pose branch of ``joint_regression_loss`` at ``lam=0``) is not
    back-propagated when :func:`_provably_zero` holds; its slots hold +0,
    and the shared trunk gets the delta that adding its +0 would give.
    Otherwise it is back-propagated like any other, so a NaN spreads.
    """
    if cache is None:
        _, cache = forward(params, cfg, x, want_cache=True)
    grads = params.grads
    layers = params.layers
    b = np.asarray(x).shape[0]
    if cfg.head == "joint_reg":
        shared, det_chain, pose_chain = _chains(cfg)
        # with no shared trunk both branches read x
        split = bool(shared)
        d_det = _back_chain(layers, det_chain, out_grad.det, cache, grads, None, split)
        pose_grad = out_grad.pose.reshape(b, -1)
        if _provably_zero(layers, pose_chain, pose_grad, cache):
            for name, _, _ in pose_chain:
                for slot in grads[name]:
                    slot.fill(0.0)
            d_pose = 0.0  # x + (+0) is x, but for -0 + +0, which is +0
        else:
            d_pose = _back_chain(layers, pose_chain, pose_grad, cache, grads, None, split)
        if split:
            _back_chain(
                layers, shared, d_det + d_pose, cache, grads, cache[det_chain[0][0]], False
            )
    else:
        if cfg.head == "joint_cls":
            flat = out_grad.flat
        else:
            flat = out_grad.reshape(b, -1)
        (chain,) = _chains(cfg)
        _back_chain(layers, chain, flat, cache, grads, None, False)
    return params.grad.copy()


# The most values (rows times the widest layer, input included) one array
# of a training batch may hold.  A step keeps such an array for every layer
# (its cached input and its delta), and the probe batch has its own, all
# sized by ``batch_size``, which a config can set to any integer, so an
# unchecked one could ask for any amount of memory before the first step.
# 2**24 values is 128 MiB an array; the batches of the tests, demos, README
# and benchmark hold 16,384 at most (128 rows of a layer 128 wide).
MAX_BATCH_VALUES = 2**24


def check_batch_size(cfg: NetConfig, tcfg: TrainConfig) -> None:
    """Refuse a batch of ``tcfg`` whose arrays through the net of ``cfg``
    would hold more than ``MAX_BATCH_VALUES`` values."""
    widest = max(max(fan_in, fan_out) for _, fan_in, fan_out in layer_plan(cfg))
    n = tcfg.batch_size * widest
    if n > MAX_BATCH_VALUES:
        raise InvalidConfig(f"batch_size {tcfg.batch_size} with the net's widest layer of "
                            f"{widest} gives {n} values; a batch holds at most {MAX_BATCH_VALUES}")


def effective_lr(tcfg: TrainConfig, iteration: int) -> float:
    """Step schedule: the base rate divided by the decay factor once per
    milestone already reached (iterations are 0-based)."""
    k = sum(1 for m in tcfg.decay_at if iteration >= m)
    return tcfg.lr / tcfg.lr_decay_factor**k


def sgd_step(
    params: ModelParams,
    grads: np.ndarray,
    tcfg: TrainConfig,
    iteration: int,
) -> None:
    """In-place momentum SGD update.  Weight decay applies to weights
    only, never biases, and enters through the velocity:
    v <- momentum*v + g + wd*w;  w <- w - lr_t*v.  The vectors of
    ``params`` are updated in place, in that order of operations, as one
    update over all layers (weights first, so the decay is one slice).
    ``grads`` is what ``backward`` returned, a flat vector laid out like
    ``params.values``."""
    lr = effective_lr(tcfg, iteration)
    n_w = params.n_weights
    w, v = params.values, params.velocity
    v *= tcfg.momentum
    v += grads
    v[:n_w] += tcfg.weight_decay * w[:n_w]
    w -= lr * v


@dataclass(frozen=True, eq=False)
class Pool:
    """Flattened view of a dataset's proposals for batch sampling.

    Construction checks the rows once, so the batches drawn from them need
    no checks: foreground rows have a class id >= 1 and a finite azimuth.

    ``rows`` is the one feature table that batches are drawn from, of
    ``2n + m`` rows: the n foreground features, their noiseless mirrors
    (the class's feature at the mirrored azimuth), then the m background
    features.  ``fg_features``, ``fg_flip_clean`` and ``bg_features`` are
    views of these three parts, so a write into them reaches the batches.
    ``labels`` labels the same rows, a label table whose bins or
    embeddings each training run derives once (``losses.step_loss``).
    ``fg_noise_sigma`` is each foreground row's class noise scale.  Rows of
    a class without a spec cannot be flipped: their mirror row and noise
    scale are NaN, and their mirror is labelled as background, class 0
    with a NaN azimuth, as every background row is.
    """

    fg_features: np.ndarray
    fg_class: np.ndarray
    fg_azimuth: np.ndarray
    bg_features: np.ndarray
    specs: dict[int, ClassSpec]
    rows: np.ndarray = field(init=False, repr=False)
    fg_flip_clean: np.ndarray = field(init=False, repr=False)
    fg_noise_sigma: np.ndarray = field(init=False, repr=False)
    # whether some foreground row cannot be flipped
    has_unflippable: bool = field(init=False, repr=False)
    labels: Labels = field(init=False, repr=False)

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
        m = bg.shape[0]
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
        rows = np.full((2 * n + m, d), np.nan)
        rows[:n] = fg
        rows[2 * n:] = bg
        sigma = np.full(n, np.nan)
        for i, (cid, theta) in enumerate(zip(cls.tolist(), flip_az.tolist())):
            spec = self.specs.get(cid)
            if spec is None:
                continue
            if spec.feature_dim != d:
                raise LayoutError(
                    f"class {cid} has feature_dim {spec.feature_dim}, pool rows have {d}"
                )
            rows[n + i] = appearance_clean(spec, theta)
            sigma[i] = spec.noise_sigma
        cls = cls.astype(int, copy=False)
        flippable = ~np.isnan(sigma)
        labels = Labels(
            np.concatenate([cls, np.where(flippable, cls, 0), np.zeros(m, dtype=int)]),
            np.concatenate([az, np.where(flippable, flip_az, np.nan), np.full(m, np.nan)]),
        )
        for name, value in (
            ("rows", rows),
            ("fg_features", rows[:n]),
            ("fg_class", cls),
            ("fg_azimuth", az),
            ("bg_features", rows[2 * n:]),
            ("fg_flip_clean", rows[n : 2 * n]),
            ("fg_noise_sigma", sigma),
            ("has_unflippable", not flippable.all()),
            ("labels", labels),
        ):
            object.__setattr__(self, name, value)


def build_pool(dataset: Dataset) -> Pool:
    t = dataset.proposals
    gts = dataset.ground_truths()
    first_gt = np.cumsum([0] + [len(s.gts) for s in dataset.scenes])  # by scene
    fg = t.matched_gt >= 0
    rows = first_gt[t.scene[fg]] + t.matched_gt[fg]  # each foreground row's gt
    return Pool(
        fg_features=t.features[fg],
        fg_class=np.array([g.class_id for g in gts], dtype=int)[rows],
        fg_azimuth=np.array([g.azimuth for g in gts], dtype=float)[rows],
        bg_features=t.features[~fg],
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
    noise, that is, the draw's mirror row of ``Pool.rows`` plus noise.
    The noise of all flipped rows of noisy classes is one
    ``(k, feature_dim)`` draw, row by row the same numbers as one draw per
    flipped row.  Backgrounds are rotation-free, so flipping leaves them
    alone.  The batch is one index array into ``Pool.rows``: the features
    are those rows, and the labels ``Labels`` of the same rows of
    ``Pool.labels``.
    """
    n_fg, n_bg = _split(pool, tcfg)
    idx, x = _draw(pool, n_fg, n_bg, tcfg.flip_augment, rng)
    return x, Labels(pool.labels.class_id[idx], pool.labels.azimuth[idx])


def _split(pool: Pool, tcfg: TrainConfig) -> tuple[int, int]:
    """The foreground and background rows of a batch of ``tcfg``, checked
    against what ``pool`` holds."""
    n_fg = math.ceil(tcfg.positive_fraction * tcfg.batch_size)
    n_bg = tcfg.batch_size - n_fg
    if n_fg > 0 and pool.fg_class.shape[0] == 0:
        raise EmptyClassError("batch needs foreground samples but the pool has none")
    if n_bg > 0 and pool.bg_features.shape[0] == 0:
        raise EmptyClassError("batch needs background samples but the pool has none")
    return n_fg, n_bg


def _draw(
    pool: Pool, n_fg: int, n_bg: int, flip_augment: bool, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The core of :func:`make_batch`: the draws of a batch of ``n_fg``
    foreground and ``n_bg`` background rows (see :func:`_split`), as the
    index into ``pool.rows`` and the batch's features."""
    n = pool.fg_class.shape[0]
    m = pool.bg_features.shape[0]
    # a draw of no rows leaves the generator as it was
    idx = rng.integers(0, n, n_fg)
    noise = None
    if flip_augment:
        flipped = (rng.random(n_fg) < 0.5).nonzero()[0]
        sigma = pool.fg_noise_sigma[idx[flipped]]
        if pool.has_unflippable and np.isnan(sigma).any():
            cid = pool.fg_class[idx[flipped[np.argmax(np.isnan(sigma))]]]
            raise ConfigError(f"flip_augment needs class {cid}'s spec, which the pool lacks")
        idx[flipped] += n  # the mirror rows
        noisy = (sigma > 0.0).nonzero()[0]
        noise = rng.standard_normal((noisy.size, pool.rows.shape[1]))
        noise *= sigma[noisy, None]
    if n_bg > 0:
        idx = np.concatenate([idx, rng.integers(2 * n, 2 * n + m, n_bg)])
    x = pool.rows.take(idx, axis=0)
    if noise is not None:
        x[flipped[noisy]] += noise
    return idx, x


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

    The loss must train the net's head kind (``losses.check_loss_head``).
    Pose-only losses cannot digest background rows, so they require
    positive_fraction == 1.  The log
    holds probe-batch loss every log_every iterations (and at the last);
    identical seeds give bitwise identical parameters and logs.  A
    ``joint_reg`` branch whose loss gradient is all +0 (the
    pose branch at ``lam=0``) is not back-propagated while its cached
    inputs and weights are finite (see :func:`backward`).

    A batch whose arrays would hold more than ``MAX_BATCH_VALUES`` values
    is refused with ``InvalidConfig`` before the pool is built.  A run
    computes once what its steps share: the batch's foreground and
    background split, the net's chains, the step loss
    (``losses.step_loss``, which derives the label columns of the pool
    that the loss reads), and a check that every pool row's class has an
    output in the net, refusing one without it with ``ClassOutOfRange``,
    naming the row, before any step.  Each step draws its rows
    (``_draw``, the core of ``make_batch``), runs them through the chains
    (``_outputs``, the core of ``forward``) and the step loss, which runs
    the loss's core on the batch's rows of the label columns, so it
    derives no bin or embedding, and then calls ``backward`` and
    ``sgd_step``.  The probe batch goes through ``make_batch``, ``forward``
    and the public loss of ``losses.loss_function``.

    A non-finite batch loss aborts with DivergenceError carrying the
    iteration and the last finite probe loss, and naming the first layer,
    in forward order, whose cached input activation, weights or biases
    hold a non-finite value.

    Parameters, momentum and gradients are flat vectors that every step
    updates in place, and each layer's arrays are views into them: the
    ``params`` a callback receives are the live ones, so a callback that
    keeps them past its return must copy them (``params.copy()``).
    """
    if isinstance(loss, str):
        loss = LossSpec(loss)
    check_loss_head(loss.kind, cfg.head)
    if loss.kind in POSE_ONLY_LOSSES and tcfg.positive_fraction < 1.0:
        raise ConfigError(
            f"loss {loss.kind!r} has no background term; "
            f"set positive_fraction=1, got {tcfg.positive_fraction}"
        )
    check_batch_size(cfg, tcfg)
    pool = dataset if isinstance(dataset, Pool) else build_pool(dataset)
    beyond = pool.fg_class > cfg.n_classes
    if beyond.any():
        i = int(np.argmax(beyond))
        raise ClassOutOfRange(
            f"foreground row {i} has class {pool.fg_class[i]} but the net covers "
            f"1..{cfg.n_classes}"
        )
    fn = loss_function(loss, cfg.n_dims)
    params = init_params(cfg)
    batch_rng = np.random.default_rng([tcfg.seed, 0])
    probe_rng = np.random.default_rng([tcfg.seed, 1])
    probe_x, probe_t = make_batch(
        pool, dataclasses.replace(tcfg, flip_augment=False), probe_rng
    )
    n_fg, n_bg = _split(pool, tcfg)
    step_fn = step_loss(loss, pool.labels, cfg.n_classes, cfg.n_bins, cfg.n_dims, tcfg.batch_size)
    layers, chains = params.layers, _chains(cfg)
    log: list[LogEntry] = []
    probe_loss = None  # the last finite one
    for t in range(tcfg.total_iters):
        if t % tcfg.log_every == 0 or t == tcfg.total_iters - 1:
            probe = fn(forward(params, cfg, probe_x), probe_t)
            log.append(
                LogEntry(t, effective_lr(tcfg, t), probe.value, probe.value / len(probe_t))
            )
            if math.isfinite(probe.value):
                probe_loss = probe.value
        idx, x = _draw(pool, n_fg, n_bg, tcfg.flip_augment, batch_rng)
        cache = {}
        res = step_fn(_outputs(layers, cfg, chains, x, cache), idx)
        if not math.isfinite(res.value):
            raise DivergenceError(
                f"non-finite loss {res.value}; {_first_non_finite(params, cache)}; "
                f"last finite probe loss {probe_loss}",
                iteration=t,
                probe_loss=probe_loss,
            )
        grads = backward(params, cfg, x, res.grad, cache)
        sgd_step(params, grads, tcfg, t)
        if callback is not None:
            callback(t, params, res.value)
    if not params.all_finite():
        raise DivergenceError("non-finite parameters after final step")
    return TrainResult(params, log)


def _first_non_finite(params: ModelParams, cache: dict) -> str:
    """Where a step whose loss is not finite first held a non-finite
    value: the first layer, in forward order (the cache's), whose cached
    input activation, weights (``w``) or biases (``b``) do."""
    finite = np.isfinite(params.values)
    for name, a_in in cache.items():
        w, _, b = params.slots[name]
        for what, ok in (("activation", np.isfinite(a_in).all()), ("w", finite[w].all()),
                         ("b", finite[b].all())):
            if not ok:
                return f"first non-finite value in layer {name} {what}"
    return "every cached activation and parameter is finite, so the outputs or the loss overflowed"


class Prediction(NamedTuple):
    """One detection score and one azimuth per (row, class) hypothesis,
    both (B, n_classes).  Pose-only heads score every hypothesis 1."""

    scores: np.ndarray
    azimuths: np.ndarray


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


def predict(params: ModelParams, cfg: NetConfig, x: np.ndarray) -> Prediction:
    """The score and azimuth of every (row, class) hypothesis of a batch of
    feature rows.

    Pose-only heads score 1, ``joint_reg`` by its detection softmax with
    the background column dropped, and ``joint_cls`` by its joint scores.
    Regression heads decode their embeddings, one at a time, where a
    degenerate embedding decodes to azimuth 0; classification heads answer
    the center of their argmax bin, ties to the lowest.

    The forward pass runs on the whole batch.  A matmul over a block of
    rows need not give the bits of those rows of the whole product: at
    the pipeline benchmark's shapes (OpenBLAS 0.3.31) 64- and 100-row
    blocks did not, nor did 2048-row blocks whose last block held 5 to 130
    rows, and no BLAS promises that any block size does.  The softmaxes,
    detection scores, argmax and bin centers that follow it are row-wise,
    give the same bits in any block of rows, and run ``PREDICT_BLOCK`` rows
    at a time into preallocated outputs, so their temporaries are one
    block's, not the whole batch's."""
    out = forward(params, cfg, x)
    if cfg.head == "reg":
        return Prediction(np.ones(out.shape[:2]), _decode_grid(out))
    blocks = [slice(lo, lo + PREDICT_BLOCK) for lo in range(0, len(x), PREDICT_BLOCK)]
    if cfg.head == "joint_reg":
        det_probs = np.empty(out.det.shape)
        for rows in blocks:
            softmax(out.det[rows], out=det_probs[rows])
        return Prediction(det_probs[:, 1:], _decode_grid(out.pose))
    if cfg.head == "cls":
        return Prediction(np.ones(out.shape[:2]), _argmax_centers(out, blocks))
    scores = np.empty(out.obj.shape[:2])
    for rows in blocks:
        joint_detection_scores(JointClsOutputs(out.obj[rows], out.back[rows]), out=scores[rows])
    return Prediction(scores, _argmax_centers(out.obj, blocks))


def _argmax_centers(logits: np.ndarray, blocks: list[slice]) -> np.ndarray:
    """The center of the argmax bin of each (row, class) of (B, n_classes,
    n_bins) logits, a block of rows at a time."""
    azimuths = np.empty(logits.shape[:2])
    for rows in blocks:
        azimuths[rows] = bin_center(np.argmax(logits[rows], axis=2) + 1, logits.shape[2])
    return azimuths
