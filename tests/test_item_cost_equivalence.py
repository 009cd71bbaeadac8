"""Per-item fast paths against the code they replaced.

Three per-item costs were taken off the pipeline, each with the code it
replaced kept here as the oracle:

* ``synthetic.generate`` hashes each split's seeds in one array pass
  (``seeding``) and builds generators from the state words; the oracle is
  numpy's own ``SeedSequence`` and ``default_rng``, and the per-scene loop
  as it stood before.
* ``generate`` fills one proposal table per split, which the dataset
  writer formats by column; the oracle is the per-scene loop building one
  record per proposal, and the writer as it stood over those records.
* the records (``Box``, ``GroundTruth``, ``Detection``) are slotted
  dataclasses with a hand-written ``__init__``; the oracle is the plain
  frozen dataclasses with ``__post_init__`` checks.
* a loss computes its gradient on first read; the oracle computes it
  eagerly, as every loss did before.

Floats are compared as ``float.hex`` or byte for byte, never with a
tolerance.
"""

import copy
import dataclasses
import io
import json
import math
import pickle
from dataclasses import dataclass

import numpy as np
import pytest

from test_codec_equivalence import (
    OracleDataset,
    OracleProposal,
    OracleScene,
    _dataset_key,
    dataset_records,
)

from viewbench import losses, synthetic
from viewbench.angles import TWO_PI, canonicalize
from viewbench.errors import InvalidAngle, InvalidParameter
from viewbench.gradcheck import _layout
from viewbench.losses import (
    JointClsOutputs,
    JointRegOutputs,
    LossResult,
    Target,
    as_labels,
    classification_loss,
    default_geometric_sigma,
    geometric_classification_loss,
    joint_classification_loss,
    joint_regression_loss,
    log_softmax,
    regression_loss,
)
from viewbench.metrics import Box, Detection, GroundTruth, iou
from viewbench.records import format_dataset, format_ground_truths, write_benchmark
from viewbench.seeding import generator, int_words, noise_states, scene_states, seed_states
from viewbench.synthetic import ClassSpec, Proposals, generate

# ---------------------------------------------------------------- seeds


def _words(entropy) -> list[int]:
    """The uint32 words SeedSequence reads from an int or a list of ints."""
    if isinstance(entropy, list):
        return [w for v in entropy for w in int_words(v)]
    return int_words(entropy)


def _hash_each(entropies) -> np.ndarray:
    """``seed_states`` over entropies of mixed word counts: one array pass
    per word count, rows put back in input order."""
    words = [_words(e) for e in entropies]
    out = np.empty((len(words), 4), dtype=np.uint64)
    for length in {len(w) for w in words}:
        rows = [i for i, w in enumerate(words) if len(w) == length]
        out[rows] = seed_states(np.array([words[i] for i in rows], dtype=np.uint32))
    return out


def _numpy_states(entropies) -> np.ndarray:
    return np.array(
        [np.random.SeedSequence(e).generate_state(4, np.uint64) for e in entropies],
        dtype=np.uint64,
    ).reshape(len(entropies), 4)


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1, 2**64, 2**64 + 12345, 2**100 + 7]
EDGE_INDICES = [0, 1, 2**32 - 1, 2**32]


class TestSeedHash:
    def test_random_entropies(self):
        rng = np.random.default_rng(2024)
        entropies = []
        for _ in range(12_000):
            bits = int(rng.integers(0, 161))
            value = int(rng.integers(0, 2**63)) << int(rng.integers(0, 100))
            value &= (1 << bits) - 1
            if rng.random() < 0.5:
                entropies.append(value)
            else:
                entropies.append([value, int(rng.integers(0, 2**40)) >> int(rng.integers(0, 41))])
        assert {len(_words(e)) for e in entropies} >= {1, 2, 3, 4, 5, 6}
        np.testing.assert_array_equal(_hash_each(entropies), _numpy_states(entropies))

    def test_edge_seeds(self):
        np.testing.assert_array_equal(_hash_each(EDGE_SEEDS), _numpy_states(EDGE_SEEDS))

    def test_seed_index_pairs(self):
        pairs = [[s, i] for s in (0, 7, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1, 2**64)
                 for i in EDGE_INDICES]
        np.testing.assert_array_equal(_hash_each(pairs), _numpy_states(pairs))

    def test_empty(self):
        assert seed_states(np.empty((0, 2), dtype=np.uint32)).shape == (0, 4)

    @pytest.mark.parametrize("seed", [0, 5, 2**32 + 1, 2**64 - 1, 2**64 + 3, 2**96 + 1,
                                      2**200, np.int64(9), np.uint64(2**63), True])
    def testscene_states(self, seed):
        n = 40
        np.testing.assert_array_equal(
            scene_states(seed, n), _numpy_states([[seed, i] for i in range(n)])
        )
        assert scene_states(seed, 0).shape == (0, 4)

    @pytest.mark.parametrize("seed", [-1, 1.5, "x"])
    def test_bad_scene_seed_fails_like_default_rng(self, seed):
        with pytest.raises(Exception) as want:
            np.random.default_rng([seed, 0])
        with pytest.raises(type(want.value)) as got:
            scene_states(seed, 3)
        assert str(got.value) == str(want.value)

    def testnoise_states(self):
        rng = np.random.default_rng(5)
        seeds = [0, 1, 2**32 - 1, 2**32, 2**63 - 1] + rng.integers(0, 2**63, 500).tolist()
        np.testing.assert_array_equal(noise_states(seeds), _numpy_states(seeds))

    def test_generators_match_default_rng(self):
        entropies = EDGE_SEEDS + [[2**64 + 5, 2**32], [3, 4]]
        for entropy, words in zip(entropies, _hash_each(entropies)):
            got, want = generator(words), np.random.default_rng(entropy)
            assert got.bit_generator.state == want.bit_generator.state
            assert got.integers(0, 2**63, 5).tolist() == want.integers(0, 2**63, 5).tolist()
            np.testing.assert_array_equal(got.standard_normal(7), want.standard_normal(7))
            np.testing.assert_array_equal(got.random(3), want.random(3))
            assert got.bit_generator.state == want.bit_generator.state


# ---------------------------------------------------------------- generate


def _generate_oracle(seed, n_scenes, class_specs, objects_per_scene=(1, 3), proposals_per_gt=1,
                     backgrounds_per_scene=8, jitter=0.15, gt_size_range=(0.15, 0.4),
                     split="train"):
    """``generate``'s scene loop as it stood before the seed hashing: a
    ``default_rng`` per scene and per proposal, features drawn in the loop."""
    class_specs = tuple(class_specs)
    ids = [s.class_id for s in class_specs]
    feature_dim = class_specs[0].feature_dim
    lo, hi = objects_per_scene
    spec_by_id = {s.class_id: s for s in class_specs}
    scenes = []
    for i in range(n_scenes):
        rng = np.random.default_rng([seed, i])
        image_id = f"{split}_{i:05d}"
        n_obj = int(rng.integers(lo, hi + 1))
        gts = []
        for _ in range(n_obj):
            cid = int(ids[rng.integers(len(ids))])
            theta = float(rng.uniform(0.0, TWO_PI))
            gts.append(GroundTruth(image_id, cid, synthetic._random_box(rng, gt_size_range), theta))
        proposals = []
        for j, g in enumerate(gts):
            spec = spec_by_id[g.class_id]
            for _ in range(proposals_per_gt):
                for _attempt in range(synthetic._MAX_TRIES):
                    box = synthetic._jittered_box(rng, g.box, jitter)
                    ov = iou(box, g.box)
                    if ov >= 0.5:
                        break
                noise_seed = int(rng.integers(0, 2**63))
                feat = synthetic.appearance(spec, g.azimuth, np.random.default_rng(noise_seed))
                proposals.append(OracleProposal(box, feat, j, ov, noise_seed))
        for _ in range(backgrounds_per_scene):
            for _attempt in range(synthetic._MAX_TRIES):
                box = synthetic._random_box(rng, gt_size_range)
                worst = max((iou(box, g.box) for g in gts), default=0.0)
                if worst < 0.3:
                    break
            noise_seed = int(rng.integers(0, 2**63))
            feat = np.random.default_rng(noise_seed).standard_normal(feature_dim)
            proposals.append(OracleProposal(box, feat, -1, worst, noise_seed))
        scenes.append(OracleScene(image_id, tuple(gts), tuple(proposals)))
    return OracleDataset(tuple(scenes), class_specs, feature_dim, split, seed)


def _specs(noiseless_last=False, feature_dim=6):
    specs = [
        ClassSpec(1, seed=3, feature_dim=feature_dim),
        ClassSpec(2, seed=3, feature_dim=feature_dim, symmetry_order=2, noise_sigma=0.1),
        ClassSpec(3, seed=3, feature_dim=feature_dim, noise_sigma=0.0 if noiseless_last else 0.3),
    ]
    return specs


GENERATE_CASES = {
    "default": (0, 12, _specs(), {}),
    "noiseless-class": (4, 12, _specs(noiseless_last=True), {}),
    "two-per-gt": (2**32 + 9, 8, _specs(), {"proposals_per_gt": 2}),
    "no-proposals-per-gt": (5, 8, _specs(), {"proposals_per_gt": 0}),
    "zero-jitter": (6, 8, _specs(), {"jitter": 0.0, "proposals_per_gt": 2}),
    "no-backgrounds": (2**64 - 1, 8, _specs(), {"backgrounds_per_scene": 0}),
    "no-scenes": (7, 0, _specs(), {}),
    "seed-past-2**64": (2**64 + 1, 6, _specs(), {"split": "test"}),
    "seed-of-4-words": (2**100, 6, _specs(), {"objects_per_scene": (2, 4)}),
    "numpy-seed": (np.int64(11), 6, _specs(), {}),
    "one-feature": (8, 8, _specs(feature_dim=1), {"proposals_per_gt": 2}),
}


def _recording(monkeypatch):
    """Patch the module's draw helpers so every call records the state of
    the generator it drew from, after the draw: scene generators under
    "boxes", noise generators under "features", each in call order."""
    states = {"boxes": [], "features": []}
    for name in ("_random_box", "_jittered_box", "appearance"):
        fn = getattr(synthetic, name)

        def wrapped(*args, _fn=fn, _name=name):
            out = _fn(*args)
            if _name == "appearance":
                states["features"].append(args[-1].bit_generator.state)
            else:
                states["boxes"].append(args[0].bit_generator.state)
            return out

        monkeypatch.setattr(synthetic, name, wrapped)
    return states


def _feature_hex(ds):
    return [[float(v).hex() for v in p.feature] for s in dataset_records(ds).scenes
            for p in s.proposals]


def _parent_dataset_lines(ds, inline_features):
    """The dataset writer as it stood over proposal records: one ``%``
    template per line, a prop line's made for its feature count."""
    yield (
        f"# viewbench dataset: split={ds.split} feature_dim={ds.feature_dim} "
        f"inline_features={int(inline_features)}"
    )
    for scene in ds.scenes:
        yield f"scene {scene.image_id} {len(scene.gts)} {len(scene.proposals)}"
        for g in scene.gts:
            b = g.box
            yield "gt %s %.17g %.17g %.17g %.17g %.17g" % (
                g.class_id, b.x_min, b.y_min, b.x_max, b.y_max, g.azimuth
            )
        for p in scene.proposals:
            b = p.box
            template = "prop %s %.17g %s %.17g %.17g %.17g %.17g"
            values = (p.matched_gt, p.iou, p.noise_seed, b.x_min, b.y_min, b.x_max, b.y_max)
            if inline_features:
                feature = p.feature.tolist()
                template += " " + " ".join(["%.17g"] * len(feature))
                values += tuple(feature)
            yield template % values


def parent_format_dataset(ds, inline_features=True):
    return "\n".join(_parent_dataset_lines(ds, inline_features)) + "\n"


def parent_benchmark_files(train, test, binary):
    """The bytes of each file ``write_benchmark`` wrote for two oracle
    splits, as the writer over proposal records wrote them."""
    files = {}
    for name, ds in (("train", train), ("test", test)):
        files[f"{name}_data.txt"] = parent_format_dataset(ds, not binary).encode()
        gts = [g for s in ds.scenes for g in s.gts]
        files[f"{name}_gt.txt"] = format_ground_truths(gts).encode()
        if binary:
            rows = [p.feature for s in ds.scenes for p in s.proposals]
            buf = io.BytesIO()
            np.save(buf, np.array(rows, dtype=np.float64).reshape(-1, ds.feature_dim),
                    allow_pickle=False)
            files[f"{name}_features.npy"] = buf.getvalue()

    def entry(ds, name):
        return {
            "data": f"{name}_data.txt", "gt": f"{name}_gt.txt",
            "features": f"{name}_features.npy" if binary else None, "seed": ds.seed,
            "n_scenes": len(ds.scenes), "n_gt": sum(len(s.gts) for s in ds.scenes),
            "n_proposals": sum(len(s.proposals) for s in ds.scenes),
        }

    doc = {
        "format": "viewbench-benchmark", "version": 1, "feature_dim": train.feature_dim,
        "features_binary": binary,
        "class_specs": [dataclasses.asdict(s) for s in train.class_specs],
        "splits": {"train": entry(train, "train"), "test": entry(test, "test")},
        "config": None,
    }
    files["manifest.json"] = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
    return files


@pytest.mark.parametrize("case", list(GENERATE_CASES))
def test_generate_matches_per_scene_loop(case, monkeypatch):
    seed, n, specs, kw = GENERATE_CASES[case]
    states = _recording(monkeypatch)
    want = _generate_oracle(seed, n, specs, **kw)
    want_states = {key: list(v) for key, v in states.items()}
    for v in states.values():
        v.clear()
    got = generate(seed, n, specs, **kw)
    assert got.seed == want.seed and got.split == want.split
    assert format_dataset(got) == parent_format_dataset(want)
    assert format_dataset(got, inline_features=False) == parent_format_dataset(
        want, inline_features=False
    )
    assert _feature_hex(got) == _feature_hex(want)
    assert states == want_states


@pytest.mark.parametrize("case", list(GENERATE_CASES))
def test_generated_table_is_the_records(case):
    """Every column of the table, bit for bit (floats as ``float.hex``),
    holds the fields of the oracle's records in scene order; its dtypes
    are fixed and its feature matrix is read-only."""
    seed, n, specs, kw = GENERATE_CASES[case]
    got, want = generate(seed, n, specs, **kw), _generate_oracle(seed, n, specs, **kw)
    assert _dataset_key(got) == _dataset_key(want)
    t = got.proposals
    rows = [(i, p) for i, s in enumerate(want.scenes) for p in s.proposals]
    assert t.scene.tolist() == [i for i, _ in rows]
    assert [[v.hex() for v in b] for b in t.boxes.tolist()] == [
        [v.hex() for v in (p.box.x_min, p.box.y_min, p.box.x_max, p.box.y_max)] for _, p in rows
    ]
    assert t.noise_seed.tolist() == [p.noise_seed for _, p in rows]
    assert [(c.dtype, c.shape) for c in (t.scene, t.boxes, t.features, t.matched_gt, t.iou,
                                         t.noise_seed)] == [
        (np.dtype(np.intp), (len(rows),)), (np.dtype(float), (len(rows), 4)),
        (np.dtype(float), (len(rows), specs[0].feature_dim)), (np.dtype(np.intp), (len(rows),)),
        (np.dtype(float), (len(rows),)), (np.dtype(np.uint64), (len(rows),)),
    ]
    assert got.features() is t.features and not t.features.flags.writeable
    assert got.n_samples == len(rows)


@pytest.mark.parametrize("binary", [False, True])
@pytest.mark.parametrize("case", ["default", "two-per-gt", "no-proposals-per-gt", "zero-jitter",
                                  "no-backgrounds", "no-scenes", "one-feature"])
def test_write_benchmark_bytes_equal_the_record_writer(case, binary, tmp_path):
    seed, n, specs, kw = GENERATE_CASES[case]
    test_kw = {**kw, "split": "test"}
    write_benchmark(tmp_path, generate(seed, n, specs, **kw),
                    generate(seed + 1, n // 2, specs, **test_kw), features_binary=binary)
    want = parent_benchmark_files(_generate_oracle(seed, n, specs, **kw),
                                  _generate_oracle(seed + 1, n // 2, specs, **test_kw), binary)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == want


# ---------------------------------------------------------------- records


@dataclass(frozen=True)
class _OracleBox:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise InvalidParameter(
                f"degenerate box ({self.x_min}, {self.y_min}, {self.x_max}, {self.y_max})"
            )


@dataclass(frozen=True)
class _OracleGroundTruth:
    image_id: str
    class_id: int
    box: object
    azimuth: float

    def __post_init__(self):
        object.__setattr__(self, "azimuth", canonicalize(self.azimuth))


@dataclass(frozen=True)
class _OracleDetection:
    image_id: str
    class_id: int
    box: object
    score: float
    azimuth: float

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise InvalidParameter(f"detection score must be finite, got {self.score}")
        object.__setattr__(self, "azimuth", canonicalize(self.azimuth))


for _cls, _name in ((_OracleBox, "Box"), (_OracleGroundTruth, "GroundTruth"),
                    (_OracleDetection, "Detection")):
    _cls.__qualname__ = _name  # so reprs compare equal


def _outcome(make):
    try:
        return make()
    except Exception as e:  # the type and the message must match
        return (type(e), str(e))


BAD_BOXES = [(0.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0, 1.0), (1.0, 0.0, 0.0, 1.0),
             (math.nan, 0.0, 1.0, 1.0), (0.0, 0.0, math.inf, math.nan), (2, 2, 1, 3)]
AZIMUTHS = [-0.0, 0.0, 5e-324, math.nextafter(TWO_PI, 0.0), TWO_PI, -1e-300, -1.5, 7.0, 3,
            0, np.float64(1.25), np.float64(-2.0), np.float32(0.1), 1e300]
BAD_AZIMUTHS = [math.nan, math.inf, -math.inf, np.float64(math.nan)]


class TestRecords:
    @pytest.mark.parametrize("values", BAD_BOXES)
    def test_degenerate_box_message(self, values):
        got, want = _outcome(lambda: Box(*values)), _outcome(lambda: _OracleBox(*values))
        assert got == want and isinstance(got, tuple)

    @pytest.mark.parametrize("score", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
    def test_non_finite_score_message(self, score):
        box = Box(0.0, 0.0, 1.0, 1.0)
        got = _outcome(lambda: Detection("a", 1, box, score, 1.0))
        want = _outcome(lambda: _OracleDetection("a", 1, box, score, 1.0))
        assert got == want and isinstance(got, tuple)
        # the score is checked before the azimuth, as before
        got = _outcome(lambda: Detection("a", 1, box, score, math.nan))
        assert got == _outcome(lambda: _OracleDetection("a", 1, box, score, math.nan))

    @pytest.mark.parametrize("azimuth", AZIMUTHS + BAD_AZIMUTHS)
    def test_stored_azimuth_is_canonicalize(self, azimuth):
        box = Box(0.0, 0.0, 1.0, 1.0)
        for new, old in ((lambda a: GroundTruth("i", 1, box, a),
                          lambda a: _OracleGroundTruth("i", 1, box, a)),
                         (lambda a: Detection("i", 1, box, 0.5, a),
                          lambda a: _OracleDetection("i", 1, box, 0.5, a))):
            got, want = _outcome(lambda: new(azimuth)), _outcome(lambda: old(azimuth))
            if isinstance(want, tuple):
                assert got == want and want[0] is InvalidAngle
                continue
            assert type(got.azimuth) is type(want.azimuth)
            assert float(got.azimuth).hex() == float(want.azimuth).hex()

    def _pairs(self):
        box, obox = Box(0.1, 0.2, 0.7, 0.9), _OracleBox(0.1, 0.2, 0.7, 0.9)
        return [
            (box, obox),
            (GroundTruth("img", 2, box, 7.0), _OracleGroundTruth("img", 2, obox, 7.0)),
            (Detection("img", 3, box, 0.25, -1.0), _OracleDetection("img", 3, obox, 0.25, -1.0)),
        ]

    def test_repr_eq_hash_asdict(self):
        for new, old in self._pairs():
            assert repr(new) == repr(old)
            assert dataclasses.asdict(new) == dataclasses.asdict(old)
            assert [f.name for f in dataclasses.fields(new)] == [
                f.name for f in dataclasses.fields(old)
            ]
            twin = copy.deepcopy(new)
            assert twin == new and hash(twin) == hash(new) and twin is not new
            assert pickle.loads(pickle.dumps(new)) == new
            assert not hasattr(new, "__dict__")

    def test_frozen(self):
        for new, _ in self._pairs():
            field = dataclasses.fields(new)[0].name
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(new, field, 1)

    def test_replace_runs_the_checks(self):
        box, gt, det = (new for new, _ in self._pairs())
        assert dataclasses.replace(box, x_max=0.8).x_max == 0.8
        with pytest.raises(InvalidParameter, match="degenerate box"):
            dataclasses.replace(box, x_max=0.0)
        assert dataclasses.replace(gt, azimuth=-1.0).azimuth == canonicalize(-1.0)
        with pytest.raises(InvalidParameter, match="score must be finite"):
            dataclasses.replace(det, score=math.inf)
        assert dataclasses.replace(det, azimuth=TWO_PI).azimuth == 0.0

    def test_keyword_construction(self):
        box = Box(x_min=0.0, y_min=0.0, x_max=1.0, y_max=2.0)
        assert box.area == 2.0
        det = Detection(image_id="a", class_id=1, box=box, score=0.5, azimuth=TWO_PI)
        assert det.azimuth == 0.0

    def test_proposal(self):
        """A proposal is a row of the table: a frozen, slotted dataclass of
        columns that pickles and replaces whole."""
        box = Box(0.0, 0.0, 1.0, 1.0)
        t = Proposals(np.zeros(1, dtype=np.intp), np.array([[0.0, 0.0, 1.0, 1.0]]),
                      np.arange(3.0)[None], np.array([-1]), np.array([0.1]),
                      np.array([12], dtype=np.uint64))
        assert t.matched_gt[0] < 0 and not hasattr(t, "__dict__")
        q = pickle.loads(pickle.dumps(t))
        assert (Box(*q.boxes[0].tolist()), q.matched_gt.tolist(), q.iou.tolist(),
                q.noise_seed.tolist()) == (box, [-1], [0.1], [12])
        np.testing.assert_array_equal(q.features, t.features)
        assert dataclasses.replace(t, matched_gt=np.array([0])).matched_gt.tolist() == [0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.iou = np.array([0.5])
        assert repr(t).startswith("Proposals(scene=array([0]), boxes=array([[0., 0., 1., 1.]])")


# ---------------------------------------------------------------- losses


def _eager(kind, outputs, targets, sigma=None, lam=1.0, dim=None, delta=1.0):
    """Each loss as it stood before, value and gradient computed together."""
    labels = as_labels(targets)
    if kind == "regression":
        cls = labels.class_id
        own = (np.arange(outputs.shape[0]), cls - 1)
        value, deriv = losses.huber(outputs[own] - labels.embeddings(dim), delta)
        grad = np.zeros(outputs.shape)
        grad[own] = deriv
        return float(np.add.reduce(value, axis=None)), grad
    if kind in ("classification", "geometric"):
        n, _, n_bins = outputs.shape
        rows = np.arange(n)
        own = (rows, labels.class_id - 1)
        logp = log_softmax(outputs[own], axis=1)
        if kind == "classification":
            true_bin = (rows, labels.bins(n_bins) - 1)
            value = -float(np.add.reduce(logp[true_bin], axis=None))
            row_grad = np.exp(logp)
            row_grad[true_bin] -= 1.0
        else:
            sigma = default_geometric_sigma(n_bins) if sigma is None else sigma
            weights = losses._geometric_weights(n_bins, float(sigma))[labels.bins(n_bins) - 1]
            value = -float(np.add.reduce(weights * logp, axis=None))
            row_grad = np.add.reduce(weights, axis=1, keepdims=True) * np.exp(logp)
            row_grad -= weights
        grad = np.zeros(outputs.shape)
        grad[own] = row_grad
        return value, grad
    cls = labels.class_id
    n = cls.size
    if kind == "joint_regression":
        det, pose = outputs.det, outputs.pose
        hit = (np.arange(n), cls)
        logp = log_softmax(det, axis=1)
        value = -float(np.add.reduce(logp[hit], axis=None))
        det_grad = np.exp(logp)
        det_grad[hit] -= 1.0
        pose_grad = np.zeros(pose.shape)
        if lam != 0.0:
            fg = (cls > 0).nonzero()[0]
            if fg.size:
                own = (fg, cls[fg] - 1)
                hval, hderiv = losses.huber(
                    pose[own] - labels.embeddings(pose.shape[2])[fg], delta
                )
                value += lam * float(np.add.reduce(hval, axis=None))
                pose_grad[own] = lam * hderiv
        return value, JointRegOutputs(det=det_grad, pose=pose_grad)
    _, n_classes, n_bins = outputs.obj.shape
    flat = np.concatenate([outputs.obj.reshape(n, -1), outputs.back[:, None]], axis=1)
    logp = log_softmax(flat, axis=1)
    slots = np.where(cls > 0, (cls - 1) * n_bins + labels.bins(n_bins) - 1, n_classes * n_bins)
    hit = (np.arange(n), slots)
    value = -float(np.add.reduce(logp[hit], axis=None))
    flat_grad = np.exp(logp)
    flat_grad[hit] -= 1.0
    return value, JointClsOutputs.from_flat(flat_grad, n_classes, n_bins)


def _targets(rng, n, n_classes, background):
    out = []
    for _ in range(n):
        if background and rng.random() < 0.3:
            out.append(Target(0))
        else:
            out.append(Target(int(rng.integers(1, n_classes + 1)), float(rng.uniform(0, TWO_PI))))
    return out


def _loss_cases():
    rng = np.random.default_rng(17)
    cases = []
    for n_c in (1, 2, 5):
        for b in (1, 3, 8):
            for dim in (2, 3):
                for delta in (0.5, 1.0):
                    out = rng.normal(0.0, 2.0, (b, n_c, dim))
                    t = _targets(rng, b, n_c, False)
                    cases.append(("regression", out, t, {"dim": dim, "delta": delta}))
                for lam in (0.0, 1.0, 0.5):
                    out = JointRegOutputs(rng.normal(0, 2, (b, n_c + 1)),
                                          rng.normal(0, 2, (b, n_c, dim)))
                    t = _targets(rng, b, n_c, True)
                    cases.append(("joint_regression", out, t, {"lam": lam, "delta": 0.7}))
            for n_v in (2, 8, 24, 360):
                t = _targets(rng, b, n_c, False)
                cases.append(("classification", rng.normal(0, 2, (b, n_c, n_v)), t, {}))
                for sigma in (None, 0.3):
                    cases.append(("geometric", rng.normal(0, 2, (b, n_c, n_v)), t,
                                  {"sigma": sigma}))
                out = JointClsOutputs(rng.normal(0, 2, (b, n_c, n_v)), rng.normal(0, 2, b))
                cases.append(("joint_classification", out, _targets(rng, b, n_c, True), {}))
                flat = rng.normal(0, 2, (b, n_c * n_v + 1))
                out = JointClsOutputs.from_flat(flat, n_c, n_v)
                cases.append(("joint_classification", out, _targets(rng, b, n_c, True), {}))
    return cases


LOSSES = {
    "regression": regression_loss,
    "classification": classification_loss,
    "geometric": geometric_classification_loss,
    "joint_regression": joint_regression_loss,
    "joint_classification": joint_classification_loss,
}


def _arrays(grad):
    if isinstance(grad, JointRegOutputs):
        return [grad.det, grad.pose]
    if isinstance(grad, JointClsOutputs):
        return [grad.obj, grad.back, grad.flat]
    return [grad]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture
def make_grad_calls(monkeypatch):
    """Counts how often each deferred gradient is computed."""
    calls = []
    deferred = LossResult.deferred.__func__

    def counting(cls, value, make_grad):
        calls.append(0)
        k = len(calls) - 1

        def wrapped():
            calls[k] += 1
            return make_grad()

        return deferred(cls, value, wrapped)

    monkeypatch.setattr(LossResult, "deferred", classmethod(counting))
    return calls


def test_every_loss_kind_is_covered():
    assert {case[0] for case in _loss_cases()} == set(losses.LOSS_KINDS)


@pytest.mark.parametrize("labels_kind", ["targets", "labels"])
def test_lazy_gradient_equals_eager(labels_kind, make_grad_calls):
    for kind, outputs, targets, kw in _loss_cases():
        labels = as_labels(targets) if labels_kind == "labels" else targets
        want_value, want_grad = _eager(kind, outputs, targets, **kw)
        res = LOSSES[kind](outputs, labels, **kw)
        assert float(res.value).hex() == float(want_value).hex(), kind
        assert make_grad_calls[-1] == 0  # reading the value computes no gradient
        grad = res.grad
        assert type(grad) is type(want_grad)
        for got, want in zip(_arrays(grad), _arrays(want_grad)):
            assert _same_bits(got, want), kind
        assert res.grad is grad
        assert make_grad_calls[-1] == 1, kind


def test_eager_result_still_constructs():
    grad = np.ones(3)
    res = LossResult(1.5, grad)
    assert res.value == 1.5 and res.grad is grad
    assert repr(res) == "LossResult(value=1.5, grad=array([1., 1., 1.]))"


def test_bad_delta_raises_with_the_value():
    out = np.zeros((1, 1, 2))
    with pytest.raises(InvalidParameter, match="huber delta must be positive"):
        regression_loss(out, [Target(1, 0.5)], dim=2, delta=0.0)


def test_packed_joint_cls_rows_equal_concatenation():
    rng = np.random.default_rng(3)
    for b, n_c, n_v in ((1, 1, 2), (4, 2, 8), (7, 5, 24)):
        outputs = JointClsOutputs(rng.normal(size=(b, n_c, n_v)), rng.normal(size=b))
        vec, rows, build = _layout(outputs)
        assert _same_bits(vec, np.concatenate([outputs.obj.ravel(), outputs.back]))
        again = build(vec.take(rows))
        want = np.concatenate([outputs.obj.reshape(b, -1), outputs.back[:, None]], axis=1)
        assert _same_bits(again.flat, want)
        assert _same_bits(again.obj, outputs.obj) and _same_bits(again.back, outputs.back)
