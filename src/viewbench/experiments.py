"""End-to-end experiment protocols for the qualitative findings.

Three reproducible effects are exercised on the synthetic benchmark:

1. Pose formulation ordering: with a single fixed detector supplying the
   detection scores, pose-only heads trained on identical data rank
   mAVP24 as classification > 3D regression > 2D regression.
2. Joint training: one network trained with the globally normalized
   detection+pose loss beats the independent pipeline (fixed detector
   plus a separately trained classification head) on mAVP24, because its
   detection score already discounts proposals whose pose is uncertain.
3. Symmetry ambiguity: on a 2-fold symmetric class every feature admits
   two ground-truth azimuths half a turn apart.  Querying a trained
   regressor's single answer against both pins its paired accuracy at
   the 50% ceiling once the features are fit.  On the same training
   features the trained classifier commits too: its mass on either bin
   of the pair (``pair_mass``) is nearly all on the bin it was trained
   on (at seed 0, a mean of 1.000 there and 0.000 on the other bin).

Every arm is one row of ``_ARMS`` (seed offset, loss, net fields; the
head is the one the formulation table ``losses.LOSS_HEADS`` gives the
loss), and ``train_arms`` trains the arms a protocol asks for under one
``TrainConfig`` and one rule: each arm takes its own seed, and a
pose-only arm (``losses.POSE_ONLY_LOSSES``), whose loss has no
background term, draws only the foreground rows of that batch.
``arm_predictions`` gives every arm's ``net.Prediction`` (one score and
azimuth per (proposal, class) hypothesis) on a benchmark's test split,
and the formulation comparison is a pairing over it; the symmetry probe
post-processes the nets it trains.  Every arm is seeded; the same seed
reproduces every number bitwise.  The detector is a two-branch net
trained with the joint regression loss at lambda = 0, which reduces it
to a pure proposal classifier; the same detector (per seed) serves every
pose arm so ordering differences come from the pose heads alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .angles import azimuth_to_bin
from .losses import LOSS_HEADS, POSE_ONLY_LOSSES, LossSpec, softmax
from .metrics import Detections, evaluate
from .net import (
    ModelParams,
    NetConfig,
    Pool,
    Prediction,
    TrainConfig,
    build_pool,
    forward,
    predict,
    train,
)
from .synthetic import ClassSpec, Dataset, default_benchmark, generate

N_BINS = 24

# arm -> (seed offset, loss, extra NetConfig fields); the stable per-arm
# seed offsets keep arms decoupled under one run seed
_ARMS = {
    "detector": (11, LossSpec("joint_regression", lam=0.0), {"n_dims": 3, "split_depth": 1}),
    "reg2d": (12, LossSpec("regression"), {"n_dims": 2}),
    "reg3d": (13, LossSpec("regression"), {"n_dims": 3}),
    "cls": (14, LossSpec("classification"), {}),
    "joint_cls": (15, LossSpec("joint_classification"), {}),
}


def _derived_seed(seed: int, offset: int) -> int:
    """The seed that ``offset`` derives from the run seed ``seed``."""
    return int(np.random.SeedSequence([seed, offset]).generate_state(1)[0])


def train_arms(
    train_ds: Dataset, pool: Pool, arms, seed: int, width: int, tcfg: TrainConfig
) -> dict[str, tuple[ModelParams, NetConfig]]:
    """Train each arm of ``_ARMS`` named in ``arms`` once, in order, on
    ``pool``, which is ``build_pool(train_ds)``: a net with one trunk
    layer of ``width``, seeded from ``seed`` and the arm's offset, trained
    under ``tcfg`` with that seed.  A pose-only arm takes no background
    rows, so it trains on the foreground rows of ``tcfg``'s batch alone.
    Returns each arm's parameters and net, as ``predict`` takes them."""
    nets = {}
    for arm in arms:
        offset, loss, extra = _ARMS[arm]
        s = _derived_seed(seed, offset)
        cfg = NetConfig(
            input_dim=train_ds.feature_dim, trunk_widths=(width,), head=LOSS_HEADS[loss.kind],
            n_classes=train_ds.n_classes, n_bins=N_BINS, seed=s, **extra,
        )
        nets[arm] = train(pool, cfg, _arm_tcfg(loss, tcfg, s), loss).params, cfg
    return nets


def _arm_tcfg(loss: LossSpec, tcfg: TrainConfig, seed: int) -> TrainConfig:
    """The config an arm of ``loss`` trains under, given the protocol's
    ``tcfg``: ``tcfg`` with ``seed``, and for a pose-only loss, which has
    no background term, a batch of ``tcfg``'s foreground rows alone, as
    many per iteration as a joint arm sees in a batch of ``tcfg``."""
    arm_tcfg = replace(tcfg, seed=seed)
    if loss.kind in POSE_ONLY_LOSSES:
        n_fg = math.ceil(tcfg.positive_fraction * tcfg.batch_size)
        arm_tcfg = replace(arm_tcfg, batch_size=n_fg, positive_fraction=1.0)
    return arm_tcfg


def pose_angles(pred: Prediction) -> tuple[np.ndarray, np.ndarray]:
    """Detection scores and azimuths, both (B, n_classes), of ``predict()``:
    one (score, azimuth) per class hypothesis, as ``viewbench predict``
    composes them."""
    return pred.scores, pred.azimuths


def compose_detections(
    ds: Dataset, scores: np.ndarray, angles: np.ndarray, floor: float = 0.0
) -> Detections:
    """One detection per (proposal, class) at or above the score floor,
    proposal-major and class-minor; the classes of a proposal share its
    box row.  Scores are compared as float64."""
    scores = np.asarray(scores, dtype=float)
    rows, cols = np.nonzero(scores >= floor)
    used, box_rows = np.unique(rows, return_inverse=True)
    t = ds.proposals
    images = [scene.image_id for scene in ds.scenes]
    return Detections(
        [images[s] for s in t.scene[rows].tolist()],
        cols + 1,
        t.boxes[used],
        box_rows,
        scores[rows, cols],
        np.asarray(angles, dtype=float)[rows, cols],
    )


def mavp24(ds: Dataset, dets: Detections) -> float:
    return evaluate(ds.ground_truths(), dets, bins=(N_BINS,)).mean_avp[N_BINS]


@dataclass(frozen=True)
class ComparisonResult:
    """mAVP24 of every arm for one seed."""

    reg2d: float
    reg3d: float
    cls: float
    joint_cls: float


def arm_predictions(
    seed: int, iters: int = 3000, width: int = 64
) -> tuple[Dataset, dict[str, Prediction]]:
    """Train every arm of ``_ARMS`` under ``TrainConfig(total_iters=iters)``
    on one pool of the training split of ``default_benchmark(seed)``, and
    predict its test split.  Returns the test split and each arm's
    prediction."""
    train_ds, test_ds = default_benchmark(seed)
    tcfg = TrainConfig(total_iters=iters)
    nets = train_arms(train_ds, build_pool(train_ds), _ARMS, seed, width, tcfg)
    feats = test_ds.features()
    return test_ds, {arm: predict(*net, feats) for arm, net in nets.items()}


def compare_formulations(seed: int, iters: int = 3000, width: int = 64) -> ComparisonResult:
    """mAVP24 of every arm of ``arm_predictions(seed, iters, width)`` on
    the test split.  The pose-only arms take the detector's scores, so
    they share its proposal ordering; the joint arm supplies its own
    scores (that coupling is the point)."""
    test_ds, preds = arm_predictions(seed, iters, width)
    values = {}
    for arm in (f.name for f in fields(ComparisonResult)):
        scores = preds["detector" if _ARMS[arm][1].kind in POSE_ONLY_LOSSES else arm].scores
        values[arm] = mavp24(test_ds, compose_detections(test_ds, scores, preds[arm].azimuths))
    return ComparisonResult(**values)


def median_comparison(seeds=(0, 1, 2, 3, 4), iters: int = 3000, width: int = 64) -> dict:
    """Median mAVP24 per arm over seeds (the headline numbers)."""
    runs = [compare_formulations(s, iters, width) for s in seeds]
    return {
        name: float(np.median([getattr(r, name) for r in runs]))
        for name in ("reg2d", "reg3d", "cls", "joint_cls")
    }


@dataclass(frozen=True)
class SymmetryProbeResult:
    reg3d_accuracy: float
    reg2d_accuracy: float
    pair_mass: float  # mean classified mass on the two antipodal true bins


def _ambiguous_dataset(seed: int, noise_sigma: float, n_scenes: int) -> Dataset:
    spec = ClassSpec(class_id=1, seed=seed, symmetry_order=2, noise_sigma=noise_sigma)
    return generate(_derived_seed(seed, 21), n_scenes, (spec,), split="train")


# the arms the symmetry probe trains
_PROBE_ARMS = ("reg3d", "reg2d", "cls")


def _probe_tcfg(iters: int) -> TrainConfig:
    """The symmetry probe's training config: near-full batches, no decay
    or flips, for the cleanest possible fit of each ambiguous feature,
    free of protocol noise."""
    return TrainConfig(positive_fraction=1.0, total_iters=iters, decay_at=(iters // 2,),
                       weight_decay=0.0, flip_augment=False)


def symmetry_probe(
    seed: int = 0,
    noise_sigma: float = 0.01,
    n_scenes: int = 12,
    iters: int = 20000,
    width: int = 128,
) -> SymmetryProbeResult:
    """Train pose heads on a single 2-fold symmetric class and measure
    how each one handles the antipodal ambiguity.

    Every feature of this class admits two ground-truth azimuths 180
    degrees apart, so each learned foreground feature is queried against
    both of its indistinguishable azimuths.  At most one of the two
    queries can score, making 50% the exact ceiling of the paired
    accuracy.  A regressor that fits the training objects commits to one
    member of each pair and sits at that ceiling.  ``pair_mass`` is the
    classifier's mean mass on either bin of the pair.  On these training
    features the classifier commits as well, to the bin it was trained
    on: at seed 0 its mean mass is 1.000 there and 0.000 on the other.
    """
    train_ds = _ambiguous_dataset(seed, noise_sigma, n_scenes)
    pool = build_pool(train_ds)

    feats = pool.fg_features
    true_bins = azimuth_to_bin(pool.fg_azimuth, N_BINS)
    pair_bins = (true_bins - 1 + N_BINS // 2) % N_BINS + 1

    nets = train_arms(train_ds, pool, _PROBE_ARMS, seed, width, _probe_tcfg(iters))

    accuracy = {}
    for arm in ("reg3d", "reg2d"):
        pred_bins = azimuth_to_bin(predict(*nets[arm], feats).azimuths[:, 0], N_BINS)
        # paired query: the feature is asked for both azimuths, one answer
        # serves both, so each pair hit counts once out of two questions
        hits = (pred_bins == true_bins) | (pred_bins == pair_bins)
        accuracy[arm] = float(np.mean(hits)) / 2.0

    probs = softmax(forward(*nets["cls"], feats)[:, 0, :])
    rows = np.arange(len(true_bins))
    pair_mass = float(np.mean(probs[rows, true_bins - 1] + probs[rows, pair_bins - 1]))
    return SymmetryProbeResult(accuracy["reg3d"], accuracy["reg2d"], pair_mass)
