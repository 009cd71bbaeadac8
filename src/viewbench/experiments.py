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
   the 50% ceiling once the features are fit, while a trained classifier
   splits its probability mass across both candidate bins instead of
   committing to one.

Every arm is one row of ``_ARMS`` (seed offset, loss, net fields; the
head is the one ``net.LOSS_HEADS`` gives the loss) and trains through
``train_arm``; both protocols use the same arms and differ only in the
training config function each passes (``_compare_tcfg``,
``_probe_tcfg``).  Every arm is read through ``net.predict``'s one score
and azimuth per (proposal, class) hypothesis.  Every arm is seeded; the
same seed reproduces every number bitwise.  The detector is a two-branch
net trained with the joint regression loss at lambda = 0, which reduces
it to a pure proposal classifier; the same detector (per seed) serves
every pose arm so ordering differences come from the pose heads alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .angles import azimuth_to_bin
from .losses import LossSpec, softmax
from .metrics import Detections, evaluate
from .net import (
    LOSS_HEADS,
    POSE_ONLY_LOSSES,
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


def train_arm(
    train_ds: Dataset, pool: Pool, arm: str, seed: int, iters: int, width: int,
    tcfg: Callable[[str, int, int], TrainConfig],
) -> tuple[NetConfig, ModelParams]:
    """Train one arm of ``_ARMS`` on ``pool``, which is
    ``build_pool(train_ds)``: a net with one trunk layer of ``width``,
    seeded from ``seed`` and the arm's offset, trained under
    ``tcfg(loss kind, arm_seed, iters)``.  Returns the net and its
    parameters."""
    offset, loss, extra = _ARMS[arm]
    s = _derived_seed(seed, offset)
    cfg = NetConfig(
        input_dim=train_ds.feature_dim, trunk_widths=(width,), head=LOSS_HEADS[loss.kind],
        n_classes=train_ds.n_classes, n_bins=N_BINS, seed=s, **extra,
    )
    return cfg, train(pool, cfg, tcfg(loss.kind, s, iters), loss).params


def _compare_tcfg(kind: str, seed: int, iters: int) -> TrainConfig:
    if kind not in POSE_ONLY_LOSSES:
        return TrainConfig(total_iters=iters, seed=seed)
    # pose-only losses take no background rows; they see the same number
    # of foreground samples per iteration as the joint arms at batch 128
    # with a quarter positives
    return TrainConfig(batch_size=32, positive_fraction=1.0, total_iters=iters, seed=seed)


def pose_angles(pred: Prediction) -> tuple[np.ndarray, np.ndarray]:
    """Detection scores and azimuths, both (B, n_classes), of ``predict()``:
    one (score, azimuth) per class hypothesis."""
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


def compare_formulations(seed: int, iters: int = 3000, width: int = 64) -> ComparisonResult:
    """Train all arms on one seeded benchmark and score them on its test
    split.  The three pose arms share the detector's proposal ordering;
    the joint arm supplies its own scores (that coupling is the point).
    All arms train on one pool of the training split."""
    train_ds, test_ds = default_benchmark(seed)
    pool = build_pool(train_ds)
    feats = test_ds.features()

    def scored(arm: str) -> tuple[np.ndarray, np.ndarray]:
        cfg, params = train_arm(train_ds, pool, arm, seed, iters, width, _compare_tcfg)
        return pose_angles(predict(params, cfg, feats))

    scores, _ = scored("detector")
    values = {}
    for arm in ("reg2d", "reg3d", "cls"):
        _, angles = scored(arm)
        values[arm] = mavp24(test_ds, compose_detections(test_ds, scores, angles))
    values["joint_cls"] = mavp24(test_ds, compose_detections(test_ds, *scored("joint_cls")))
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


def _probe_tcfg(kind: str, seed: int, iters: int) -> TrainConfig:
    # near-full batches, no decay or flips: the probe wants the cleanest
    # possible fit of each ambiguous feature, free of protocol noise
    return TrainConfig(
        batch_size=128,
        positive_fraction=1.0,
        total_iters=iters,
        decay_at=(iters // 2,),
        weight_decay=0.0,
        flip_augment=False,
        seed=seed,
    )


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
    member of each pair and sits at that ceiling; the classifier instead
    spreads its probability mass over both candidate bins, and
    ``pair_mass`` is the mean mass on that pair.
    """
    train_ds = _ambiguous_dataset(seed, noise_sigma, n_scenes)
    pool = build_pool(train_ds)

    # the foreground rows: the first rows of the pool's label table
    feats = pool.fg_features
    true_bins = pool.labels.bins(N_BINS)[: len(feats)]
    pair_bins = (true_bins - 1 + N_BINS // 2) % N_BINS + 1

    accuracy = {}
    for arm in ("reg3d", "reg2d"):
        cfg, params = train_arm(train_ds, pool, arm, seed, iters, width, _probe_tcfg)
        pred_bins = azimuth_to_bin(predict(params, cfg, feats).azimuths[:, 0], N_BINS)
        # paired query: the feature is asked for both azimuths, one answer
        # serves both, so each pair hit counts once out of two questions
        hits = (pred_bins == true_bins) | (pred_bins == pair_bins)
        accuracy[arm] = float(np.mean(hits)) / 2.0

    cfg, params = train_arm(train_ds, pool, "cls", seed, iters, width, _probe_tcfg)
    probs = softmax(forward(params, cfg, feats)[:, 0, :])
    rows = np.arange(len(true_bins))
    pair_mass = float(np.mean(probs[rows, true_bins - 1] + probs[rows, pair_bins - 1]))
    return SymmetryProbeResult(accuracy["reg3d"], accuracy["reg2d"], pair_mass)
