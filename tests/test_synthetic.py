"""Synthetic benchmark generator tests.

The ambiguity property is checked with a nearest-neighbor oracle: store
clean features on a dense azimuth grid, query with antipodal pairs, and
count bin hits.  For a 2-fold symmetric noiseless class both queries of a
pair produce the same feature, so any deterministic predictor answers at
most one of them correctly; accuracy cannot beat 1/2 by more than grid
slack.
"""

import math

import numpy as np
import pytest

from test_codec_equivalence import dataset_records

from viewbench import seeding
from viewbench.angles import TWO_PI, azimuth_to_bin
from viewbench.errors import GenerationError, InvalidParameter
from viewbench.metrics import Box, Detection, evaluate, iou
from viewbench.synthetic import (
    MAX_COEFFICIENTS,
    MAX_SPLIT_VALUES,
    ClassSpec,
    _jittered_box,
    _random_box,
    appearance,
    appearance_clean,
    default_benchmark,
    default_class_specs,
    generate,
    oracle_eval,
    regenerate_feature,
)


def _specs(noise_sigma=0.25, feature_dim=8):
    return (
        ClassSpec(class_id=1, seed=0, feature_dim=feature_dim, noise_sigma=noise_sigma),
        ClassSpec(
            class_id=2, seed=0, feature_dim=feature_dim,
            symmetry_order=2, noise_sigma=noise_sigma,
        ),
    )


class TestAppearance:
    def test_twofold_symmetry(self):
        spec = ClassSpec(class_id=1, seed=3, symmetry_order=2, noise_sigma=0.0)
        rng = np.random.default_rng(0)
        for theta in rng.uniform(0, TWO_PI, size=200):
            a = appearance_clean(spec, float(theta))
            b = appearance_clean(spec, float(theta) + math.pi)
            # equal by construction; the float phase shift costs a few ulps
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_deterministic(self):
        spec = ClassSpec(class_id=1, seed=3, noise_sigma=0.0)
        np.testing.assert_array_equal(
            appearance(spec, 1.25, np.random.default_rng(0)),
            appearance(spec, 1.25, np.random.default_rng(99)),
        )
        spec_noisy = ClassSpec(class_id=1, seed=3, noise_sigma=0.5)
        np.testing.assert_array_equal(
            appearance(spec_noisy, 1.25, np.random.default_rng(7)),
            appearance(spec_noisy, 1.25, np.random.default_rng(7)),
        )

    def test_asymmetric_class_separates_antipodes(self):
        # over 1000 class draws, the clean curve always tells theta from
        # theta + pi when the symmetry order is 1
        theta = 0.8
        dists = []
        for seed in range(1000):
            spec = ClassSpec(class_id=1, seed=seed, noise_sigma=0.0)
            d = np.linalg.norm(
                appearance_clean(spec, theta) - appearance_clean(spec, theta + math.pi)
            )
            dists.append(d)
        assert min(dists) > 0.0
        assert float(np.mean(dists)) > 3.0

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            ClassSpec(class_id=0, seed=0)
        with pytest.raises(InvalidParameter):
            ClassSpec(class_id=1, seed=0, symmetry_order=0)
        with pytest.raises(InvalidParameter):
            ClassSpec(class_id=1, seed=0, noise_sigma=-0.1)
        with pytest.raises(InvalidParameter):
            ClassSpec(class_id=1, seed=0, n_harmonics=0)
        with pytest.raises(InvalidParameter, match="seed"):
            ClassSpec(class_id=1, seed=-1)

    @pytest.mark.parametrize("field, value", [
        ("class_id", True), ("class_id", 1.0), ("seed", 0.5), ("feature_dim", 8.0),
        ("n_harmonics", 3.5), ("symmetry_order", 1.5), ("symmetry_order", "2"),
    ])
    def test_integer_fields(self, field, value):
        fields = {"class_id": 1, "seed": 0, field: value}
        with pytest.raises(InvalidParameter, match=rf"^{field} must be an integer, got "):
            ClassSpec(**fields)

    def test_numpy_integers_pass(self):
        spec = ClassSpec(class_id=np.int64(1), seed=np.uint32(3), feature_dim=np.int32(4))
        assert spec.feature_dim == 4

    @pytest.mark.parametrize("n_harmonics, symmetry_order", [
        (3, 2**62), (2, 2**62), (1, 2**63), (1, 10**30),
    ])
    def test_harmonic_frequencies_past_int64_refused(self, n_harmonics, symmetry_order):
        """The frequencies h * symmetry_order are int64: 3 * 2**62 would wrap
        to a negative frequency, and 10**30 would not convert."""
        with pytest.raises(
            InvalidParameter,
            match=rf"^n_harmonics \* symmetry_order must be <= 2\*\*63 - 1, got "
                  rf"{n_harmonics} \* {symmetry_order}$",
        ):
            ClassSpec(class_id=1, seed=0, feature_dim=2, n_harmonics=n_harmonics,
                      symmetry_order=symmetry_order, noise_sigma=0.0)

    def test_largest_frequency_in_int64_passes(self):
        spec = ClassSpec(class_id=1, seed=0, feature_dim=2, n_harmonics=1,
                         symmetry_order=2**63 - 1, noise_sigma=0.0)
        assert appearance_clean(spec, 0.0).shape == (2,)

    @pytest.mark.parametrize("n_harmonics, feature_dim", [
        (10**9, 4), (3, 10**12), (1, 2**20 + 1), (2**10 + 1, 2**10),
    ])
    def test_coefficient_count_past_the_bound_refused(self, n_harmonics, feature_dim):
        """A spec sizes its coefficient matrices and feature rows by
        n_harmonics * feature_dim: past the bound it is refused before
        anything is allocated (10**9 harmonics would ask for 29.8 GiB)."""
        with pytest.raises(
            InvalidParameter,
            match=rf"^n_harmonics \* feature_dim must be <= 1048576, got "
                  rf"{n_harmonics} \* {feature_dim}$",
        ):
            ClassSpec(class_id=1, seed=0, feature_dim=feature_dim, n_harmonics=n_harmonics)

    def test_largest_coefficient_count_passes(self):
        assert MAX_COEFFICIENTS == 2**20
        for n_harmonics, feature_dim in ((1, 2**20), (2**10, 2**10), (2**20, 1)):
            spec = ClassSpec(class_id=1, seed=0, feature_dim=feature_dim, n_harmonics=n_harmonics)
            assert spec.n_harmonics * spec.feature_dim == MAX_COEFFICIENTS


class TestGenerate:
    def test_empty(self):
        ds = generate(0, 0, _specs())
        assert ds.scenes == ()
        assert ds.n_samples == 0
        assert ds.features().shape == (0, 8)

    def test_features_stack_in_scene_order(self):
        ds = generate(2, 3, _specs())
        rows = [p.feature for s in dataset_records(ds).scenes for p in s.proposals]
        feats = ds.features()
        assert feats.shape == (ds.n_samples, 8) and feats.dtype == np.float64
        assert all(np.array_equal(row, f) for row, f in zip(feats, rows))
        assert ds.proposals.scene.tolist() == sorted(ds.proposals.scene.tolist())

    def test_features_are_the_table_read_only(self):
        ds = generate(2, 3, _specs())
        feats = ds.features()
        assert feats is ds.proposals.features and np.shares_memory(feats, ds.proposals.features)
        assert not feats.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            feats[0, 0] = 1.0

    def test_zero_jitter_is_exact(self):
        ds = generate(1, 10, _specs(), jitter=0.0)
        for scene in dataset_records(ds).scenes:
            for prop in scene.proposals:
                if prop.matched_gt < 0:
                    continue
                assert prop.box == scene.gts[prop.matched_gt].box
                assert prop.iou == 1.0
                assert iou(prop.box, scene.gts[prop.matched_gt].box) == 1.0

    def test_default_config_iou_audit(self):
        # recompute every overlap from the boxes; do not trust the records
        ds = generate(0, 100, default_class_specs())
        n_fg = n_bg = 0
        for scene in dataset_records(ds).scenes:
            for prop in scene.proposals:
                if prop.matched_gt < 0:
                    n_bg += 1
                    worst = max(iou(prop.box, g.box) for g in scene.gts)
                    assert worst < 0.3
                else:
                    n_fg += 1
                    assert 0 <= prop.matched_gt < len(scene.gts)
                    ov = iou(prop.box, scene.gts[prop.matched_gt].box)
                    assert ov >= 0.5
                    assert prop.iou == ov
        assert n_fg > 0 and n_bg > 0

    def test_bitwise_reproducible(self):
        a = dataset_records(generate(7, 12, _specs()))
        b = dataset_records(generate(7, 12, _specs()))
        assert len(a.scenes) == len(b.scenes)
        for sa, sb in zip(a.scenes, b.scenes):
            assert sa.image_id == sb.image_id
            assert sa.gts == sb.gts
            for pa, pb in zip(sa.proposals, sb.proposals):
                assert pa.box == pb.box
                assert pa.noise_seed == pb.noise_seed
                np.testing.assert_array_equal(pa.feature, pb.feature)

    def test_noise_seed_regeneration_audit(self):
        ds = generate(3, 20, _specs())
        assert ds.n_samples > 0
        for row in range(ds.n_samples):
            np.testing.assert_array_equal(regenerate_feature(ds, row), ds.features()[row])

    def test_scene_streams_are_independent(self):
        # a scene's content depends only on (seed, scene index)
        short = dataset_records(generate(11, 3, _specs()))
        long = dataset_records(generate(11, 6, _specs()))
        for sa, sb in zip(short.scenes, long.scenes):
            assert sa.gts == sb.gts
            for pa, pb in zip(sa.proposals, sb.proposals):
                np.testing.assert_array_equal(pa.feature, pb.feature)

    def test_infeasible_background_raises(self):
        # boxes that big always overlap; no background placement can work
        with pytest.raises(GenerationError):
            generate(0, 1, _specs(), gt_size_range=(0.9, 0.95), backgrounds_per_scene=2)

    def test_validation(self):
        with pytest.raises(InvalidParameter, match="^need at least one class spec$"):
            generate(0, 1, ())
        with pytest.raises(InvalidParameter, match="jitter"):
            generate(0, 1, _specs(), jitter=math.nan)
        with pytest.raises(InvalidParameter):
            generate(0, -1, _specs())
        with pytest.raises(InvalidParameter):
            generate(0, 1, (_specs()[0], _specs()[0]))
        mixed = (
            ClassSpec(class_id=1, seed=0, feature_dim=8),
            ClassSpec(class_id=2, seed=0, feature_dim=16),
        )
        with pytest.raises(
            InvalidParameter, match=r"^class specs disagree on feature_dim, got \[8, 16\]$"
        ):
            generate(0, 1, mixed)
        with pytest.raises(InvalidParameter):
            generate(0, 1, _specs(), jitter=-0.1)
        with pytest.raises(InvalidParameter):
            generate(0, 1, _specs(), split="val")
        with pytest.raises(InvalidParameter):
            generate(0, 1, _specs(), objects_per_scene=(3, 1))

    def test_non_finite_features_refused(self):
        """Noise that overflows a feature is refused where generate draws
        it; finite features whose sum overflows are kept."""
        with np.errstate(over="ignore"):
            ds = generate(0, 3, _specs(noise_sigma=5e307, feature_dim=4))
            assert np.isfinite(ds.features()).all() and not np.isfinite(ds.features().sum())
            with pytest.raises(
                GenerationError,
                match=r"^scene 0: class 2 drew features that are not finite "
                      r"\(noise_sigma 1\.7e\+308\)$",
            ):
                generate(0, 3, _specs(noise_sigma=1.7e308, feature_dim=4))

    @pytest.mark.parametrize("per_scene, args", [
        # 8 rows of 8 features, 1 ground truth a scene: the feature values bind
        (64, dict(objects_per_scene=(1, 1), proposals_per_gt=1, backgrounds_per_scene=7)),
        # no proposals, 2 ground truths a scene: the ground truths bind
        (2, dict(objects_per_scene=(1, 2), proposals_per_gt=0, backgrounds_per_scene=0)),
    ], ids=["feature-values", "ground-truths"])
    def test_split_size_ceiling(self, per_scene, args, monkeypatch):
        """A split of MAX_SPLIT_VALUES passes the argument checks; one
        scene more is refused before anything is allocated."""

        def no_allocation(seed, n_scenes):
            raise AssertionError(f"allocates for {n_scenes} scenes")

        monkeypatch.setattr(seeding, "scene_states", no_allocation)
        n_scenes = MAX_SPLIT_VALUES // per_scene
        with pytest.raises(AssertionError, match=rf"^allocates for {n_scenes} scenes$"):
            generate(0, n_scenes, _specs(), **args)
        with pytest.raises(
            InvalidParameter, match=rf"a split holds at most {MAX_SPLIT_VALUES} of either$"
        ):
            generate(0, n_scenes + 1, _specs(), **args)

    @pytest.mark.parametrize("ids", [[1, 5], [2], [2, 3], [1, 1], [2, 1]])
    def test_class_ids_must_be_1_to_n(self, ids):
        specs = [ClassSpec(class_id=i, seed=0, feature_dim=6) for i in ids]
        if sorted(ids) == list(range(1, len(ids) + 1)):
            generate(0, 1, specs)  # any order of 1..n
        else:
            with pytest.raises(
                InvalidParameter, match=rf"^class_specs ids must be 1\.\.{len(ids)}, each once"
            ):
                generate(0, 1, specs)


def _scalar_random_box(rng, size_range):
    """The box draw as four scalar uniform() calls."""
    w = float(rng.uniform(*size_range))
    h = float(rng.uniform(*size_range))
    x0 = float(rng.uniform(0.0, 1.0 - w))
    y0 = float(rng.uniform(0.0, 1.0 - h))
    return Box(x0, y0, x0 + w, y0 + h)


def _scalar_jittered_box(rng, src, jitter):
    """The jitter as four scalar normal() calls."""
    if jitter == 0.0:
        return src
    w = src.x_max - src.x_min
    h = src.y_max - src.y_min
    cx = 0.5 * (src.x_min + src.x_max) + float(rng.normal(0.0, jitter)) * w
    cy = 0.5 * (src.y_min + src.y_max) + float(rng.normal(0.0, jitter)) * h
    nw = w * max(1e-3, 1.0 + float(rng.normal(0.0, jitter)))
    nh = h * max(1e-3, 1.0 + float(rng.normal(0.0, jitter)))
    return Box(cx - nw / 2, cy - nh / 2, cx + nw / 2, cy + nh / 2)


def _box_bits(box):
    return [float(v).hex() for v in (box.x_min, box.y_min, box.x_max, box.y_max)]


class TestBoxDrawsMatchScalarDraws:
    """The box draws take one array of variates; boxes and generator state
    must equal those of the scalar draws, bit for bit."""

    @pytest.mark.parametrize("size_range", [(0.15, 0.4), (0.05, 0.95), (0.3, 0.3), (1e-9, 0.5)])
    def test_random_box(self, size_range):
        for seed in range(50):
            a, b = np.random.default_rng([seed, 1]), np.random.default_rng([seed, 1])
            for _ in range(20):
                assert _box_bits(_random_box(a, size_range)) == _box_bits(
                    _scalar_random_box(b, size_range))
            assert a.bit_generator.state == b.bit_generator.state

    def test_random_box_float32_range(self):
        size_range = (np.float32(0.15), np.float32(0.4))
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(100):
            assert _box_bits(_random_box(a, size_range)) == _box_bits(
                _scalar_random_box(b, size_range))

    @pytest.mark.parametrize("jitter", [0.0, 0.15, 0.5, 3.0])
    def test_jittered_box(self, jitter):
        for seed in range(50):
            a, b = np.random.default_rng([seed, 2]), np.random.default_rng([seed, 2])
            src = _scalar_random_box(np.random.default_rng(seed), (0.15, 0.4))
            for _ in range(20):
                assert _box_bits(_jittered_box(a, src, jitter)) == _box_bits(
                    _scalar_jittered_box(b, src, jitter))
            assert a.bit_generator.state == b.bit_generator.state


class TestOracleEval:
    def test_perfect_replay(self):
        ds = generate(5, 30, _specs())
        report = oracle_eval(ds)
        assert report.mean_ap == pytest.approx(1.0, abs=1e-12)
        for k in (4, 8, 16, 24):
            assert report.mean_avp[k] == pytest.approx(1.0, abs=1e-12)

    def test_one_bin_step_perturbation(self):
        ds = generate(5, 30, _specs())
        gts = ds.ground_truths()
        step = TWO_PI / 24
        dets = [
            Detection(g.image_id, g.class_id, g.box, 1.0, g.azimuth + step)
            for g in gts
        ]
        report = evaluate(gts, dets, bins=(24,))
        assert report.mean_ap == pytest.approx(1.0, abs=1e-12)
        assert report.mean_avp[24] == 0.0


class TestAmbiguityCeiling:
    def test_nn_oracle_capped_at_half(self):
        spec = ClassSpec(class_id=1, seed=2, symmetry_order=2, noise_sigma=0.0)
        store_angles = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
        store = np.stack([appearance_clean(spec, float(t)) for t in store_angles])
        rng = np.random.default_rng(0)
        queries = rng.uniform(0.0, math.pi, size=500)
        hits = 0
        total = 0
        for theta in queries:
            for true_theta in (float(theta), float(theta) + math.pi):
                feat = appearance_clean(spec, true_theta)
                nn = int(np.argmin(np.sum((store - feat) ** 2, axis=1)))
                pred_bin = azimuth_to_bin(float(store_angles[nn]), 24)
                hits += pred_bin == azimuth_to_bin(true_theta, 24)
                total += 1
        accuracy = hits / total
        assert accuracy <= 0.5 + 0.02
        # the oracle is near-perfect on one side of the ambiguity, so the
        # ceiling is actually attained
        assert accuracy >= 0.45

    def test_asymmetric_class_not_capped(self):
        spec = ClassSpec(class_id=1, seed=2, symmetry_order=1, noise_sigma=0.0)
        store_angles = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
        store = np.stack([appearance_clean(spec, float(t)) for t in store_angles])
        rng = np.random.default_rng(1)
        hits = 0
        queries = rng.uniform(0.0, TWO_PI, size=400)
        for theta in queries:
            feat = appearance_clean(spec, float(theta))
            nn = int(np.argmin(np.sum((store - feat) ** 2, axis=1)))
            hits += azimuth_to_bin(float(store_angles[nn]), 24) == azimuth_to_bin(
                float(theta), 24
            )
        assert hits / len(queries) > 0.95


class TestDefaults:
    def test_roster(self):
        specs = default_class_specs()
        assert [s.class_id for s in specs] == [1, 2, 3, 4]
        assert [s.symmetry_order for s in specs] == [1, 1, 2, 4]
        assert all(s.feature_dim == 32 for s in specs)

    def test_benchmark_pair(self):
        train, test = default_benchmark(seed=0, n_train_scenes=5, n_test_scenes=3)
        assert train.split == "train" and test.split == "test"
        assert len(train.scenes) == 5 and len(test.scenes) == 3
        assert train.class_specs == test.class_specs
        # distinct generator seeds keep the splits disjoint
        assert train.seed != test.seed

    def test_spec_lookup(self):
        train, _ = default_benchmark(seed=0, n_train_scenes=2, n_test_scenes=1)
        assert train.spec_of(3).symmetry_order == 2
        with pytest.raises(InvalidParameter):
            train.spec_of(9)
