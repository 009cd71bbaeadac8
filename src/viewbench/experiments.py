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

Every arm is seeded; the same seed reproduces every number bitwise.
The detector is a two-branch net trained with the joint regression loss
at lambda = 0, which reduces it to a pure proposal classifier; the same
detector (per seed) serves every pose arm so ordering differences come
from the pose heads alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .angles import TWO_PI, azimuth_to_bin
from .losses import LossSpec
from .metrics import Detection, evaluate
from .net import (
    ClsPrediction,
    JointClsPrediction,
    JointRegPrediction,
    NetConfig,
    TrainConfig,
    predict,
    train,
)
from .synthetic import ClassSpec, Dataset, default_benchmark, generate

N_BINS = 24

# stable per-arm seed offsets so arms stay decoupled under one run seed
_ARM = {"detector": 11, "reg2d": 12, "reg3d": 13, "cls": 14, "joint_cls": 15}


def _arm_seed(seed: int, arm: str) -> int:
    return int(np.random.SeedSequence([seed, _ARM[arm]]).generate_state(1)[0])


def _net_cfg(ds: Dataset, head: str, seed: int, width: int, **kw) -> NetConfig:
    return NetConfig(
        input_dim=ds.feature_dim,
        trunk_widths=(width,),
        head=head,
        n_classes=ds.n_classes,
        n_bins=N_BINS,
        seed=seed,
        **kw,
    )


def _detector_tcfg(seed: int, iters: int) -> TrainConfig:
    return TrainConfig(total_iters=iters, seed=seed)


def _pose_tcfg(seed: int, iters: int) -> TrainConfig:
    # same number of foreground samples per iteration as the joint arms
    # see at batch 128 with a quarter positives
    return TrainConfig(batch_size=32, positive_fraction=1.0, total_iters=iters, seed=seed)


@dataclass(frozen=True)
class TrainedArm:
    name: str
    cfg: NetConfig
    params: object


def train_detector(train_ds: Dataset, seed: int, iters: int = 3000, width: int = 64) -> TrainedArm:
    """Shared proposal scorer: joint-regression net at lambda 0 (pure
    detection cross-entropy; the pose branch gets zero gradient)."""
    s = _arm_seed(seed, "detector")
    cfg = _net_cfg(train_ds, "joint_reg", s, width, n_dims=3, split_depth=1)
    res = train(train_ds, cfg, _detector_tcfg(s, iters), LossSpec("joint_regression", lam=0.0))
    return TrainedArm("detector", cfg, res.params)


def train_pose_arm(
    train_ds: Dataset, arm: str, seed: int, iters: int = 3000, width: int = 64
) -> TrainedArm:
    """Pose-only net: 'reg2d', 'reg3d', or 'cls'."""
    s = _arm_seed(seed, arm)
    if arm == "reg2d":
        cfg = _net_cfg(train_ds, "reg", s, width, n_dims=2)
        loss = LossSpec("regression")
    elif arm == "reg3d":
        cfg = _net_cfg(train_ds, "reg", s, width, n_dims=3)
        loss = LossSpec("regression")
    elif arm == "cls":
        cfg = _net_cfg(train_ds, "cls", s, width)
        loss = LossSpec("classification")
    else:
        raise ValueError(f"unknown pose arm {arm!r}")
    res = train(train_ds, cfg, _pose_tcfg(s, iters), loss)
    return TrainedArm(arm, cfg, res.params)


def train_joint_cls(train_ds: Dataset, seed: int, iters: int = 3000, width: int = 64) -> TrainedArm:
    s = _arm_seed(seed, "joint_cls")
    cfg = _net_cfg(train_ds, "joint_cls", s, width)
    res = train(train_ds, cfg, _detector_tcfg(s, iters), LossSpec("joint_classification"))
    return TrainedArm("joint_cls", cfg, res.params)


def pose_angles(pred) -> tuple[np.ndarray, np.ndarray]:
    """Detection scores and azimuths, both (B, n_classes), of any head's
    ``predict()`` output: one (score, azimuth) per class hypothesis.

    Pose-only heads score every hypothesis 1; a joint regression head
    scores by its detection softmax with the background column dropped.
    Classified bins map to their centres.
    """
    if isinstance(pred, (ClsPrediction, JointClsPrediction)):
        angles = TWO_PI * (pred.bins - 1) / pred.probs.shape[2]
    else:
        angles = pred.angles
    if isinstance(pred, JointClsPrediction):
        return pred.scores, angles
    if isinstance(pred, JointRegPrediction):
        return pred.det_probs[:, 1:], angles
    return np.ones(angles.shape), angles


def compose_detections(
    ds: Dataset, scores: np.ndarray, angles: np.ndarray, floor: float = 0.0
) -> list[Detection]:
    """One detection per (proposal, class) at or above the score floor."""
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


def mavp24(ds: Dataset, dets: list[Detection]) -> float:
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
    the joint arm supplies its own scores (that coupling is the point)."""
    train_ds, test_ds = default_benchmark(seed)
    feats = test_ds.features()

    def scored(arm: TrainedArm) -> tuple[np.ndarray, np.ndarray]:
        return pose_angles(predict(arm.params, arm.cfg, feats))

    scores, _ = scored(train_detector(train_ds, seed, iters, width))
    values = {}
    for arm_name in ("reg2d", "reg3d", "cls"):
        _, angles = scored(train_pose_arm(train_ds, arm_name, seed, iters, width))
        values[arm_name] = mavp24(test_ds, compose_detections(test_ds, scores, angles))
    joint = scored(train_joint_cls(train_ds, seed, iters, width))
    values["joint_cls"] = mavp24(test_ds, compose_detections(test_ds, *joint))
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


def _ambiguous_dataset(seed: int, noise_sigma: float, n_scenes: int, split: str) -> Dataset:
    spec = ClassSpec(class_id=1, seed=seed, symmetry_order=2, noise_sigma=noise_sigma)
    return generate(
        int(np.random.SeedSequence([seed, 21 if split == "train" else 22]).generate_state(1)[0]),
        n_scenes,
        (spec,),
        split=split,
    )


def _probe_tcfg(seed: int, iters: int) -> TrainConfig:
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
    train_ds = _ambiguous_dataset(seed, noise_sigma, n_scenes, "train")

    feats, true_bins, pair_bins = [], [], []
    for scene in train_ds.scenes:
        for p in scene.proposals:
            if p.is_background:
                continue
            g = scene.gts[p.matched_gt]
            b = azimuth_to_bin(g.azimuth, N_BINS)
            feats.append(p.feature)
            true_bins.append(b)
            pair_bins.append((b - 1 + N_BINS // 2) % N_BINS + 1)
    feats = np.array(feats)
    true_bins = np.array(true_bins)
    pair_bins = np.array(pair_bins)

    accuracy = {}
    for arm_name, loss in (("reg3d", LossSpec("regression")),
                           ("reg2d", LossSpec("regression"))):
        s = _arm_seed(seed, arm_name)
        cfg = _net_cfg(train_ds, "reg", s, width,
                       n_dims=2 if arm_name == "reg2d" else 3)
        res = train(train_ds, cfg, _probe_tcfg(s, iters), loss)
        pred_bins = np.array(
            [azimuth_to_bin(a, N_BINS)
             for a in predict(res.params, cfg, feats).angles[:, 0]]
        )
        # paired query: the feature is asked for both azimuths, one answer
        # serves both, so each pair hit counts once out of two questions
        hits = (pred_bins == true_bins) | (pred_bins == pair_bins)
        accuracy[arm_name] = float(np.mean(hits)) / 2.0

    s = _arm_seed(seed, "cls")
    cls_cfg = _net_cfg(train_ds, "cls", s, width)
    cls_res = train(train_ds, cls_cfg, _probe_tcfg(s, iters), LossSpec("classification"))
    probs = predict(cls_res.params, cls_cfg, feats).probs[:, 0, :]
    rows = np.arange(len(true_bins))
    pair_mass = float(np.mean(probs[rows, true_bins - 1] + probs[rows, pair_bins - 1]))
    return SymmetryProbeResult(accuracy["reg3d"], accuracy["reg2d"], pair_mass)
