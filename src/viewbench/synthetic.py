"""Desk-scale synthetic benchmark for joint detection and viewpoint.

Each class has a deterministic appearance curve in feature space: a
truncated Fourier series in the azimuth, with per-class harmonic
coefficients drawn once from the class seed.  A class with symmetry order
m > 1 repeats its appearance every 2*pi/m of azimuth, so views that far
apart are indistinguishable by construction; no estimator can beat
1/m azimuth accuracy on such a class at fine binnings.

Scenes are unit squares holding a few ground-truth objects, jittered
foreground proposals (IoU >= 0.5 with their source object), and
background proposals (IoU < 0.3 against every ground truth) whose
features are pure standard normal noise.  All randomness is derived from
(seed, scene_index) streams so generation is bitwise reproducible, and
every proposal records the seed of its own noise draw so features can be
regenerated and audited exactly.

A split's proposals are one column table, :class:`Proposals`, scene-major;
``Dataset.features()`` is its feature matrix, read-only.  ``generate``
hashes a split's seeds in one array pass (``seeding``), scene entropies
``[seed, i]`` first, noise seeds after, into the states ``default_rng``
would give, so a feature is the ``default_rng(noise_seed)`` draw that
``regenerate_feature`` repeats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .angles import TWO_PI, canonicalize
from .errors import GenerationError, InvalidParameter, ViewbenchError, check_integers
from .metrics import AVP_BINS, Box, Detection, EvalReport, GroundTruth, box_array, evaluate, iou

_MAX_TRIES = 200

# The most coefficients, n_harmonics * feature_dim, a class spec may hold.
# A spec read from a config or a manifest sizes the coefficient matrices
# and every feature row by it, so an unchecked one could ask for any
# amount of memory.  The rosters of the tests, demos and README hold 96
# at most.
MAX_COEFFICIENTS = 2**20

# The most ground truths, and the most feature values (proposal rows times
# feature_dim), one split may hold.  ``generate`` sizes its seed states,
# scene loop and feature matrix by these counts, so an unchecked one could
# ask for any amount of memory or time.  The largest split in use, the
# benchmark's 2,500 scenes of at most 11 rows of 32 features, holds 880,000.
MAX_SPLIT_VALUES = 2**25


@dataclass(frozen=True)
class ClassSpec:
    """Appearance model of one class.

    The curve is g(theta) = sum_h a_h cos(h*m*theta) + b_h sin(h*m*theta)
    with coefficient rows drawn N(0, 1/n_harmonics) from the class seed,
    so each feature coordinate has unit variance across coefficient draws
    at every azimuth.  Observed features add N(0, noise_sigma^2) noise.
    """

    class_id: int
    seed: int
    feature_dim: int = 32
    n_harmonics: int = 3
    symmetry_order: int = 1
    noise_sigma: float = 0.25

    def __post_init__(self):
        check_integers(
            self, ("class_id", "seed", "feature_dim", "n_harmonics", "symmetry_order"),
            InvalidParameter,
        )
        if self.class_id < 1:
            raise InvalidParameter(f"class_id must be >= 1, got {self.class_id}")
        if self.seed < 0:
            raise InvalidParameter(f"seed must be >= 0, got {self.seed}")
        if self.feature_dim < 1:
            raise InvalidParameter(f"feature_dim must be >= 1, got {self.feature_dim}")
        if self.n_harmonics < 1:
            raise InvalidParameter(f"n_harmonics must be >= 1, got {self.n_harmonics}")
        if self.symmetry_order < 1:
            raise InvalidParameter(
                f"symmetry_order must be >= 1, got {self.symmetry_order}"
            )
        if self.n_harmonics * self.feature_dim > MAX_COEFFICIENTS:
            raise InvalidParameter(
                f"n_harmonics * feature_dim must be <= {MAX_COEFFICIENTS}, got "
                f"{self.n_harmonics} * {self.feature_dim}"
            )
        # the harmonic frequencies h * symmetry_order are int64
        if self.n_harmonics * self.symmetry_order > 2**63 - 1:
            raise InvalidParameter(
                f"n_harmonics * symmetry_order must be <= 2**63 - 1, got "
                f"{self.n_harmonics} * {self.symmetry_order}"
            )
        sigma = self.noise_sigma
        if isinstance(sigma, bool) or not (np.isfinite(sigma) and sigma >= 0.0):
            raise InvalidParameter(f"noise_sigma must be a number >= 0, got {sigma}")


def check_class_ids(
    ids: Sequence[int], roster: str, error: type[ViewbenchError] = InvalidParameter
) -> None:
    """Raise ``error`` unless the class ids of ``roster`` are 1..n, each once."""
    if sorted(ids) != list(range(1, len(ids) + 1)):
        raise error(f"{roster} ids must be 1..{len(ids)}, each once, got {ids}")


def roster_feature_dim(class_specs: Sequence[ClassSpec]) -> int:
    """The ``feature_dim`` of a class roster, which must hold at least one
    spec, the ids 1..n each once, and one ``feature_dim``."""
    if not class_specs:
        raise InvalidParameter("need at least one class spec")
    check_class_ids([s.class_id for s in class_specs], "class_specs")
    dims = [s.feature_dim for s in class_specs]
    if len(set(dims)) != 1:
        raise InvalidParameter(f"class specs disagree on feature_dim, got {dims}")
    return dims[0]


@lru_cache(maxsize=256)
def harmonic_coefficients(spec: ClassSpec) -> tuple[np.ndarray, np.ndarray]:
    """Cosine and sine coefficient matrices, (n_harmonics, feature_dim)."""
    rng = np.random.default_rng([spec.seed, spec.class_id])
    scale = 1.0 / np.sqrt(spec.n_harmonics)
    a = rng.normal(0.0, scale, (spec.n_harmonics, spec.feature_dim))
    b = rng.normal(0.0, scale, (spec.n_harmonics, spec.feature_dim))
    return a, b


def appearance_clean(spec: ClassSpec, theta: float) -> np.ndarray:
    """Noiseless feature vector of the class at azimuth theta."""
    theta = canonicalize(theta)
    a, b = harmonic_coefficients(spec)
    h = np.arange(1, spec.n_harmonics + 1) * spec.symmetry_order
    phases = h * theta
    return np.cos(phases) @ a + np.sin(phases) @ b


def appearance(spec: ClassSpec, theta: float, rng: np.random.Generator) -> np.ndarray:
    """Observed feature vector: clean curve plus N(0, noise_sigma^2) noise."""
    feat = appearance_clean(spec, theta)
    if spec.noise_sigma > 0.0:
        feat = feat + spec.noise_sigma * rng.standard_normal(spec.feature_dim)
    return feat


@dataclass(frozen=True)
class Scene:
    image_id: str
    gts: tuple[GroundTruth, ...]


@dataclass(frozen=True, slots=True, eq=False)
class Proposals:
    """A split's proposals, a row each.  ``scene`` indexes the row's scene,
    ``matched_gt`` its ground truths (-1: background); ``noise_seed`` drew
    the row's noise (foreground) or feature (background)."""

    scene: np.ndarray  # intp
    boxes: np.ndarray  # (n, 4): x_min, y_min, x_max, y_max
    features: np.ndarray  # (n, feature_dim) float64
    matched_gt: np.ndarray  # intp
    iou: np.ndarray  # float64
    noise_seed: np.ndarray  # uint64

    def __post_init__(self):
        self.features.flags.writeable = False


@dataclass(frozen=True, eq=False)
class Dataset:
    scenes: tuple[Scene, ...]
    proposals: Proposals
    class_specs: tuple[ClassSpec, ...]
    feature_dim: int
    split: str
    seed: int

    @property
    def n_samples(self) -> int:
        return len(self.proposals.iou)

    @property
    def n_classes(self) -> int:
        return len(self.class_specs)

    def spec_of(self, class_id: int) -> ClassSpec:
        for spec in self.class_specs:
            if spec.class_id == class_id:
                return spec
        raise InvalidParameter(f"no class spec with class_id {class_id}")

    def ground_truths(self) -> list[GroundTruth]:
        return [g for scene in self.scenes for g in scene.gts]

    def features(self) -> np.ndarray:
        """The proposal table's feature matrix, read-only."""
        return self.proposals.features


def _random_box(rng: np.random.Generator, size_range: tuple[float, float]) -> Box:
    # rng.uniform(lo, hi) is lo + (hi - lo) * u for the next double u, so
    # one rng.random(4) reads the stream of four uniform() calls; at lo = 0
    # the formula is (hi * u) exactly
    uw, uh, ux, uy = rng.random(4).tolist()
    lo, hi = float(size_range[0]), float(size_range[1])
    w = lo + (hi - lo) * uw
    h = lo + (hi - lo) * uh
    x0 = (1.0 - w) * ux
    y0 = (1.0 - h) * uy
    return Box(x0, y0, x0 + w, y0 + h)


def _jittered_box(rng: np.random.Generator, src: Box, jitter: float) -> Box:
    if jitter == 0.0:
        return src  # rebuilding from center/size would drift by an ulp
    dx, dy, dw, dh = rng.normal(0.0, jitter, 4).tolist()
    w = src.x_max - src.x_min
    h = src.y_max - src.y_min
    cx = 0.5 * (src.x_min + src.x_max) + dx * w
    cy = 0.5 * (src.y_min + src.y_max) + dy * h
    nw = w * max(1e-3, 1.0 + dw)
    nh = h * max(1e-3, 1.0 + dh)
    return Box(cx - nw / 2, cy - nh / 2, cx + nw / 2, cy + nh / 2)


def generate(
    seed: int,
    n_scenes: int,
    class_specs: Sequence[ClassSpec],
    objects_per_scene: tuple[int, int] = (1, 3),
    proposals_per_gt: int = 1,
    backgrounds_per_scene: int = 8,
    jitter: float = 0.15,
    gt_size_range: tuple[float, float] = (0.15, 0.4),
    split: str = "train",
) -> Dataset:
    """Generate a dataset of scenes with labeled proposals.

    Scene i draws everything from default_rng([seed, i]), so any scene can
    be regenerated independently of the rest; each proposal's feature is
    the draw of default_rng(noise_seed).  Foreground proposals are
    rejection-sampled to IoU >= 0.5 with their source object, backgrounds
    to IoU < 0.3 against every ground truth; a box that cannot satisfy its
    constraint within a bounded number of tries raises GenerationError.

    proposals_per_gt defaults to 1, modelling candidates that already went
    through duplicate removal; raise it to study the duplicate penalty
    (extra same-object detections count as false positives).
    """
    class_specs = tuple(class_specs)
    feature_dim = roster_feature_dim(class_specs)
    ids = [s.class_id for s in class_specs]
    if n_scenes < 0:
        raise InvalidParameter(f"n_scenes must be >= 0, got {n_scenes}")
    lo, hi = objects_per_scene
    if not 1 <= lo <= hi:
        raise InvalidParameter(f"bad objects_per_scene range ({lo}, {hi})")
    if proposals_per_gt < 0 or backgrounds_per_scene < 0:
        raise InvalidParameter("proposal counts must be >= 0")
    if not jitter >= 0.0:
        raise InvalidParameter(f"jitter must be >= 0, got {jitter}")
    if not (0.0 < gt_size_range[0] <= gt_size_range[1] < 1.0):
        raise InvalidParameter(f"bad gt_size_range {gt_size_range}")
    if split not in ("train", "test"):
        raise InvalidParameter(f"split must be 'train' or 'test', got {split!r}")
    n_gts = n_scenes * hi
    n_values = n_scenes * (hi * proposals_per_gt + backgrounds_per_scene) * feature_dim
    if max(n_gts, n_values) > MAX_SPLIT_VALUES:
        raise InvalidParameter(
            f"{n_scenes} scenes of up to {hi} objects, {proposals_per_gt} proposals per object "
            f"and {backgrounds_per_scene} backgrounds give up to {n_gts} ground truths and "
            f"{n_values} feature values ({feature_dim} per proposal); a split holds at most "
            f"{MAX_SPLIT_VALUES} of either"
        )

    # imported here: it loads numpy.random, which importing the package does not
    from .seeding import generator, noise_states, scene_states

    spec_by_id = {s.class_id: s for s in class_specs}
    scene_words = scene_states(seed, n_scenes)
    # a list per column, no tuple kept per proposal (freed, they pin
    # memory); features are drawn once all seeds are known
    scenes, columns = [], ([], [], [], [], [])

    def add(*row):  # scene, box, matched gt, IoU, seed
        for column, value in zip(columns, row):
            column.append(value)

    for i in range(n_scenes):
        rng = generator(scene_words[i])
        image_id = f"{split}_{i:05d}"
        n_obj = int(rng.integers(lo, hi + 1))
        gts = []
        for _ in range(n_obj):
            cid = int(ids[rng.integers(len(ids))])
            theta = float(rng.uniform(0.0, TWO_PI))  # GroundTruth canonicalizes
            gts.append(GroundTruth(image_id, cid, _random_box(rng, gt_size_range), theta))

        for j, g in enumerate(gts):
            for _ in range(proposals_per_gt):
                for attempt in range(_MAX_TRIES):
                    box = _jittered_box(rng, g.box, jitter)
                    ov = iou(box, g.box)
                    if ov >= 0.5:
                        break
                else:
                    raise GenerationError(
                        f"scene {i}: no jittered box reached IoU 0.5 in {_MAX_TRIES} tries"
                    )
                add(i, box, j, ov, int(rng.integers(0, 2**63)))
        for _ in range(backgrounds_per_scene):
            for attempt in range(_MAX_TRIES):
                box = _random_box(rng, gt_size_range)
                worst = max((iou(box, g.box) for g in gts), default=0.0)
                if worst < 0.3:
                    break
            else:
                raise GenerationError(
                    f"scene {i}: no background box got IoU < 0.3 in {_MAX_TRIES} tries"
                )
            add(i, box, -1, worst, int(rng.integers(0, 2**63)))
        scenes.append(Scene(image_id, tuple(gts)))

    scene_of, boxes, matched, ious, seeds = columns
    noise_words = noise_states(seeds)
    features = np.empty((len(seeds), feature_dim))
    for k, (i, j) in enumerate(zip(scene_of, matched)):
        rng = generator(noise_words[k])
        if j < 0:
            features[k] = rng.standard_normal(feature_dim)
        else:
            g = scenes[i].gts[j]
            features[k] = appearance(spec_by_id[g.class_id], g.azimuth, rng)
    with np.errstate(over="ignore", invalid="ignore"):  # the sum is checked here
        total = features.sum()
    if not math.isfinite(total):  # finite values can overflow the sum too
        for k, row in enumerate(features):
            if not np.isfinite(row).all():
                g = scenes[scene_of[k]].gts[matched[k]]  # a background row is finite
                raise GenerationError(
                    f"scene {scene_of[k]}: class {g.class_id} drew features that are not "
                    f"finite (noise_sigma {spec_by_id[g.class_id].noise_sigma})"
                )
    table = Proposals(
        np.array(scene_of, dtype=np.intp), box_array(boxes), features,
        np.array(matched, dtype=np.intp), np.array(ious, dtype=float),
        np.array(seeds, dtype=np.uint64),
    )
    return Dataset(tuple(scenes), table, class_specs, feature_dim, split, seed)


def regenerate_feature(dataset: Dataset, row: int) -> np.ndarray:
    """Rebuild the feature of proposal row ``row`` from its recorded noise seed."""
    t = dataset.proposals
    rng = np.random.default_rng(int(t.noise_seed[row]))
    if t.matched_gt[row] < 0:
        return rng.standard_normal(dataset.feature_dim)
    g = dataset.scenes[t.scene[row]].gts[t.matched_gt[row]]
    return appearance(dataset.spec_of(g.class_id), g.azimuth, rng)


def oracle_eval(dataset: Dataset, bins: Sequence[int] = AVP_BINS) -> EvalReport:
    """Evaluate perfect detections: every ground truth echoed back with
    score 1 and its true azimuth.  All AP and AVP values must be 1."""
    gts = dataset.ground_truths()
    dets = [Detection(g.image_id, g.class_id, g.box, 1.0, g.azimuth) for g in gts]
    return evaluate(gts, dets, bins=bins)


def default_class_specs(
    seed: int = 0,
    feature_dim: int = ClassSpec.feature_dim,
    noise_sigma: float = ClassSpec.noise_sigma,
) -> tuple[ClassSpec, ...]:
    """The standard four-class roster: two asymmetric classes, one with
    two-fold and one with four-fold symmetry."""
    orders = (1, 1, 2, 4)
    return tuple(
        ClassSpec(
            class_id=c,
            seed=seed,
            feature_dim=feature_dim,
            symmetry_order=m,
            noise_sigma=noise_sigma,
        )
        for c, m in zip((1, 2, 3, 4), orders)
    )


def benchmark_splits(
    seed: int,
    n_train_scenes: int,
    n_test_scenes: int,
    specs: Sequence[ClassSpec],
    **scene_args,
) -> tuple[Callable[[], Dataset], Callable[[], Dataset]]:
    """Makers of a benchmark's train and test splits, each a call of
    ``generate`` with its own seed derived from ``seed`` and with
    ``scene_args``; a caller can make and drop one split before it makes
    the other."""
    state = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    return (
        lambda: generate(int(state[0]), n_train_scenes, specs, split="train", **scene_args),
        lambda: generate(int(state[1]), n_test_scenes, specs, split="test", **scene_args),
    )


def default_benchmark(
    seed: int = 0,
    n_train_scenes: int = 200,
    n_test_scenes: int = 100,
    feature_dim: int = ClassSpec.feature_dim,
    noise_sigma: float = ClassSpec.noise_sigma,
) -> tuple[Dataset, Dataset]:
    """Standard train/test pair sharing one class roster."""
    specs = default_class_specs(seed, feature_dim, noise_sigma)
    make_train, make_test = benchmark_splits(seed, n_train_scenes, n_test_scenes, specs)
    return make_train(), make_test()
