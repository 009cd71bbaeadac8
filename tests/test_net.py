"""Network forward/backward, SGD, batching, training, and prediction.

The forward oracle is a frozen golden vector plus a straight-line
recomputation of the same arithmetic (explicit matmuls drawing weights in
plan order), so a silent change to either the draw order or the layer
chain shows up as a mismatch.  The SGD oracle is the two-step hand
recurrence v=1, w=0.9 then v=1.9, w=0.71.
"""

import dataclasses
import math

import numpy as np
import pytest

from viewbench.angles import (
    TWO_PI,
    azimuth_to_bin,
    bin_center,
    circular_difference,
    encode,
    flip_azimuth,
)
from viewbench.errors import (
    ClassOutOfRange,
    ConfigError,
    DivergenceError,
    EmptyClassError,
    InvalidAngle,
    InvalidConfig,
    LayoutError,
)
from viewbench.gradcheck import _layout
from viewbench.losses import (
    JointClsOutputs,
    JointRegOutputs,
    Labels,
    LossSpec,
    Target,
    default_geometric_sigma,
    softmax,
)
from viewbench.net import (
    LOSS_HEADS,
    POSE_ONLY_LOSSES,
    ModelParams,
    NetConfig,
    Pool,
    TrainConfig,
    backward,
    build_pool,
    effective_lr,
    forward,
    init_params,
    layer_plan,
    make_batch,
    predict,
    sgd_step,
    train,
    _loss_fn,
)
from viewbench.synthetic import ClassSpec, appearance, appearance_clean, generate

GOLDEN_CFG = NetConfig(
    input_dim=3, trunk_widths=(4,), head="cls", n_classes=2, n_bins=3, seed=42
)
GOLDEN_X = np.array([[0.5, -1.25, 2.0], [-0.75, 0.3, 0.1]])
GOLDEN_OUT = np.array(
    [
        1.301507666597569,
        0.34750334284325374,
        0.290507689394047,
        -0.9949182573071438,
        0.9379963365718753,
        0.32665864491473035,
        0.07709794045182478,
        -0.004381790189488279,
        -0.016224603116631757,
        -0.05976236263817947,
        0.10729738402812043,
        -0.013562411884727074,
    ]
).reshape(2, 2, 3)


def _bare_params(cfg):
    """Params with every weight and bias zeroed."""
    params = init_params(cfg)
    for layer in params.layers.values():
        layer.w = np.zeros_like(layer.w)
        layer.b = np.zeros_like(layer.b)
    return params


def _toy_pool(n=64, seed=0, spread=0.05):
    """Linearly separable two-bin toy: bin 1 at feature +1, bin 2 at -1."""
    rng = np.random.default_rng(seed)
    half = n // 2
    feats = np.concatenate(
        [
            np.stack([1.0 + spread * rng.normal(size=half), rng.normal(size=half)], axis=1),
            np.stack([-1.0 + spread * rng.normal(size=half), rng.normal(size=half)], axis=1),
        ]
    )
    azim = np.concatenate([np.zeros(half), np.full(half, math.pi)])
    return Pool(
        fg_features=feats,
        fg_class=np.ones(n, dtype=int),
        fg_azimuth=azim,
        bg_features=np.empty((0, 2)),
        specs={},
    )


class TestInit:
    def test_deterministic(self):
        a = init_params(GOLDEN_CFG)
        b = init_params(GOLDEN_CFG)
        for name in a.layers:
            np.testing.assert_array_equal(a.layers[name].w, b.layers[name].w)
            np.testing.assert_array_equal(a.layers[name].b, b.layers[name].b)

    def test_biases_zero(self):
        params = init_params(GOLDEN_CFG)
        for layer in params.layers.values():
            assert not layer.b.any()
            assert not layer.vw.any() and not layer.vb.any()

    def test_fan_in_scaling(self):
        cfg = NetConfig(input_dim=100, trunk_widths=(100,), head="cls", n_classes=1, seed=0)
        params = init_params(cfg)
        std = float(np.std(params.layers["trunk0"].w))
        assert abs(std - 0.1) < 0.01

    def test_zero_width_rejected(self):
        with pytest.raises(InvalidConfig):
            NetConfig(input_dim=3, trunk_widths=(4, 0), head="cls", n_classes=1)

    @pytest.mark.parametrize("key", ["weight_decay", "lr_decay_factor"])
    def test_nan_train_setting_rejected(self, key):
        with pytest.raises(InvalidConfig, match=key):
            TrainConfig(**{key: math.nan})

    NET_BASE = dict(input_dim=4, trunk_widths=(8,), head="joint_reg", n_classes=2)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("input_dim", 4.0), ("input_dim", True), ("trunk_widths", (8.5,)),
            ("trunk_widths", (8, False)), ("n_classes", 2.0), ("n_classes", np.float64(2)),
            ("n_bins", 24.0), ("n_dims", 3.0), ("split_depth", True), ("split_depth", 1.0),
            ("seed", 0.5), ("seed", "1"),
        ],
    )
    def test_net_config_integer_fields_type_checked(self, key, value):
        with pytest.raises(InvalidConfig, match=f"{key} must be"):
            NetConfig(**{**self.NET_BASE, key: value})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("batch_size", True), ("batch_size", 16.0), ("total_iters", 2.5),
            ("total_iters", np.float32(3)), ("decay_at", (1.5,)), ("decay_at", (10, True)),
            ("log_every", 1.5), ("seed", 2.0), ("seed", None),
        ],
    )
    def test_train_config_integer_fields_type_checked(self, key, value):
        with pytest.raises(InvalidConfig, match=f"{key} must be"):
            TrainConfig(**{key: value})

    def test_numpy_integers_accepted(self):
        cfg = NetConfig(
            input_dim=np.int64(4), trunk_widths=(np.int32(8), np.uint8(6)), head="joint_reg",
            n_classes=np.int16(2), n_bins=np.int64(24), n_dims=np.int64(2),
            split_depth=np.int64(1), seed=np.uint64(3),
        )
        assert init_params(cfg).n_params == init_params(
            NetConfig(input_dim=4, trunk_widths=(8, 6), head="joint_reg", n_classes=2,
                      n_dims=2, seed=3)
        ).n_params
        tcfg = TrainConfig(batch_size=np.int64(8), total_iters=np.int32(5),
                           decay_at=(np.int64(2),), log_every=np.uint16(2), seed=np.int64(1))
        assert effective_lr(tcfg, 3) == tcfg.lr / tcfg.lr_decay_factor

    def test_gradcheck_nets_stay_small(self):
        # the end-to-end finite-difference oracle assumes compact nets
        for head, extra in (
            ("reg", {}),
            ("cls", dict(n_bins=5)),
            ("joint_reg", dict(split_depth=1)),
            ("joint_cls", dict(n_bins=5)),
        ):
            cfg = NetConfig(input_dim=4, trunk_widths=(6,), head=head, n_classes=2, **extra)
            assert init_params(cfg).n_params <= 200


class TestForward:
    def test_zero_params_zero_output(self):
        params = _bare_params(GOLDEN_CFG)
        out = forward(params, GOLDEN_CFG, GOLDEN_X)
        assert not out.any()

    def test_identity_network(self):
        # identity trunk weights on positive inputs pass through the
        # rectifier; an identity head then reproduces the input
        cfg = NetConfig(input_dim=4, trunk_widths=(4,), head="reg", n_classes=2, n_dims=2)
        params = _bare_params(cfg)
        params.layers["trunk0"].w = np.eye(4)
        params.layers["head"].w = np.eye(4)
        x = np.abs(np.random.default_rng(0).normal(size=(5, 4))) + 0.1
        out = forward(params, cfg, x)
        np.testing.assert_array_equal(out.reshape(5, 4), x)

    def test_golden_vector(self):
        out = forward(init_params(GOLDEN_CFG), GOLDEN_CFG, GOLDEN_X)
        np.testing.assert_allclose(out, GOLDEN_OUT, atol=1e-15)

    def test_straight_line_recomputation(self):
        rng = np.random.default_rng(GOLDEN_CFG.seed)
        w0 = rng.normal(0.0, 1.0 / math.sqrt(3), (3, 4))
        w1 = rng.normal(0.0, 1.0 / math.sqrt(4), (4, 6))
        dup = (np.maximum(GOLDEN_X @ w0, 0.0) @ w1).reshape(2, 2, 3)
        out = forward(init_params(GOLDEN_CFG), GOLDEN_CFG, GOLDEN_X)
        np.testing.assert_array_equal(out, dup)

    def test_joint_reg_shapes(self):
        cfg = NetConfig(
            input_dim=3, trunk_widths=(5, 4), head="joint_reg", n_classes=2,
            n_dims=3, split_depth=1,
        )
        out = forward(init_params(cfg), cfg, np.zeros((7, 3)))
        assert out.det.shape == (7, 3)
        assert out.pose.shape == (7, 2, 3)

    def test_dim_mismatch(self):
        with pytest.raises(LayoutError):
            forward(init_params(GOLDEN_CFG), GOLDEN_CFG, np.zeros((2, 5)))


def _layer_grads(params, flat):
    """The flat gradient that ``backward`` returns, as ``name -> (dw, db)``
    views through ``params.slots``."""
    slots = params.slots.items()
    return {name: (flat[w].reshape(shape), flat[b]) for name, (w, shape, b) in slots}


class TestBackward:
    def test_zero_out_grad(self):
        params = init_params(GOLDEN_CFG)
        grads = _layer_grads(params, backward(params, GOLDEN_CFG, GOLDEN_X, np.zeros((2, 2, 3))))
        for dw, db in grads.values():
            assert not dw.any() and not db.any()

    def test_linear_outer_product(self):
        # no trunk, 2x2 head: d(0.5*||out||^2)/dw = x^T out exactly
        cfg = NetConfig(input_dim=2, trunk_widths=(), head="reg", n_classes=1, n_dims=2)
        params = init_params(cfg)
        x = np.array([[1.5, -0.5]])
        out = forward(params, cfg, x)
        grads = _layer_grads(params, backward(params, cfg, x, out))
        want_dw = x.T @ out.reshape(1, 2)
        np.testing.assert_allclose(grads["head"][0], want_dw, atol=1e-15)
        np.testing.assert_allclose(grads["head"][1], out.reshape(2), atol=1e-15)

    def test_dead_rectifier_blocks_gradient(self):
        cfg = NetConfig(input_dim=3, trunk_widths=(4,), head="cls", n_classes=1, n_bins=3)
        params = init_params(cfg)
        params.layers["trunk0"].b = np.full(4, -100.0)  # all units off
        x = np.random.default_rng(1).normal(size=(4, 3))
        out, cache = forward(params, cfg, x, want_cache=True)
        np.testing.assert_array_equal(out, np.tile(params.layers["head"].b, (4, 1)).reshape(4, 1, 3))
        grads = _layer_grads(params, backward(params, cfg, x, np.ones_like(out), cache))
        assert not grads["trunk0"][0].any() and not grads["trunk0"][1].any()
        assert not grads["head"][0].any()  # head input is all zeros
        assert grads["head"][1].any()  # bias still learns

    def test_split_branch_isolation(self):
        cfg = NetConfig(
            input_dim=3, trunk_widths=(4, 4), head="joint_reg", n_classes=2,
            n_dims=2, split_depth=1,
        )
        params = init_params(cfg)
        x = np.random.default_rng(2).normal(size=(5, 3))
        out = forward(params, cfg, x)
        from viewbench.losses import JointRegOutputs

        pose_only = JointRegOutputs(np.zeros_like(out.det), np.ones_like(out.pose))
        grads = _layer_grads(params, backward(params, cfg, x, pose_only))
        assert not grads["det0"][0].any() and not grads["det_head"][0].any()
        assert grads["pose0"][0].any() and grads["trunk0"][0].any()

        det_only = JointRegOutputs(np.ones_like(out.det), np.zeros_like(out.pose))
        grads = _layer_grads(params, backward(params, cfg, x, det_only))
        assert not grads["pose0"][0].any() and not grads["pose_head"][0].any()
        assert grads["det0"][0].any() and grads["trunk0"][0].any()


    @pytest.mark.parametrize(
        "head, extra",
        [("cls", {}), ("joint_cls", {}), ("joint_reg", dict(split_depth=0)),
         ("joint_reg", dict(split_depth=2))],
    )
    def test_out_grad_left_alone(self, head, extra):
        # the ReLU mask is applied in place, but never on the caller's array
        cfg = NetConfig(input_dim=3, trunk_widths=(4, 5), head=head, n_classes=2, n_bins=3, **extra)
        params = init_params(cfg)
        x = np.random.default_rng(6).normal(size=(5, 3))
        out = forward(params, cfg, x)
        vec, rows, build = _layout(out)
        grad = build(np.random.default_rng(7).normal(size=vec.size).take(rows))
        before = _layout(grad)[0]
        backward(params, cfg, x, grad)
        assert np.array_equal(_layout(grad)[0], before)


class TestFlatParams:
    CFG = NetConfig(input_dim=3, trunk_widths=(4, 5), head="joint_reg", n_classes=2,
                    n_dims=2, split_depth=1, seed=5)

    def test_layers_view_the_vectors(self):
        params = init_params(self.CFG)
        plan = layer_plan(self.CFG)
        assert params.n_weights == sum(i * o for _, i, o in plan)
        assert params.n_params == params.values.size == params.n_weights + sum(o for *_, o in plan)
        w_parts = [params.layers[name].w.ravel() for name, _, _ in plan]
        b_parts = [params.layers[name].b.ravel() for name, _, _ in plan]
        assert np.array_equal(params.values, np.concatenate(w_parts + b_parts))
        params.values[:] = 1.5
        params.velocity[:] = -2.0
        for layer in params.layers.values():
            assert (layer.w == 1.5).all() and (layer.b == 1.5).all()
            assert (layer.vw == -2.0).all() and (layer.vb == -2.0).all()

    def test_copy_is_independent_and_identical(self):
        params = init_params(self.CFG)
        params.velocity[:] = np.random.default_rng(0).normal(size=params.velocity.size)
        copy = params.copy()
        for vec in ("values", "velocity"):
            got, want = getattr(copy, vec), getattr(params, vec)
            assert got.tobytes() == want.tobytes()
            assert not np.shares_memory(got, want)
        assert list(copy.layers) == list(params.layers)
        copy.layers["pose0"].w[0, 0] += 1.0
        copy.velocity[-1] += 1.0
        assert not np.array_equal(copy.layers["pose0"].w, params.layers["pose0"].w)
        assert copy.velocity[-1] != params.velocity[-1]

    def test_backward_result_is_the_callers(self):
        params = init_params(self.CFG)
        x = np.random.default_rng(1).normal(size=(5, 3))
        out = forward(params, self.CFG, x)
        ones = JointRegOutputs(np.ones_like(out.det), np.ones_like(out.pose))
        first = backward(params, self.CFG, x, ones)
        kept = first.copy()
        second = backward(params, self.CFG, x, JointRegOutputs(-out.det, out.pose))
        assert first.tobytes() == kept.tobytes()
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, params.grad)
        assert first.shape == params.values.shape


def _scalar_grads(dw, db):
    """The gradients of the one-layer ``params`` of ``TestSGD``, laid out
    as ``backward`` returns them: one flat vector, weight then bias."""
    return np.array([dw, db], dtype=float)


class TestSGD:
    def _scalar_params(self, w=1.0, b=0.0):
        return ModelParams([("head", 1, 1)], np.array([w, b], dtype=float), np.zeros(2))

    def test_fixed_point(self):
        params = self._scalar_params()
        tcfg = TrainConfig(lr=0.1, momentum=0.9, weight_decay=0.0)
        sgd_step(params, _scalar_grads(0.0, 0.0), tcfg, 0)
        assert params.layers["head"].w[0, 0] == 1.0

    def test_two_step_recurrence(self):
        params = self._scalar_params()
        tcfg = TrainConfig(lr=0.1, momentum=0.9, weight_decay=0.0, decay_at=())
        g = _scalar_grads(1.0, 0.0)
        sgd_step(params, g, tcfg, 0)
        assert params.layers["head"].w[0, 0] == pytest.approx(0.9, abs=1e-15)
        sgd_step(params, g, tcfg, 1)
        # v = 0.9 * 1 + 1 = 1.9; w = 0.9 - 0.19
        assert params.layers["head"].w[0, 0] == pytest.approx(0.71, abs=1e-15)

    def test_lr_schedule(self):
        tcfg = TrainConfig(lr=0.01, decay_at=(100, 200), lr_decay_factor=10.0)
        assert effective_lr(tcfg, 0) == 0.01
        assert effective_lr(tcfg, 99) == 0.01
        assert effective_lr(tcfg, 100) == pytest.approx(0.001, abs=1e-18)
        assert effective_lr(tcfg, 200) == pytest.approx(0.0001, abs=1e-18)

    def test_updates_in_place(self):
        params = self._scalar_params()
        arrays = [getattr(params.layers["head"], a) for a in ("w", "b", "vw", "vb")]
        tcfg = TrainConfig(lr=0.1, momentum=0.9, weight_decay=0.5, decay_at=())
        sgd_step(params, _scalar_grads(1.0, 1.0), tcfg, 0)
        assert all(
            getattr(params.layers["head"], a) is arr
            for a, arr in zip(("w", "b", "vw", "vb"), arrays)
        )
        assert params.layers["head"].vw[0, 0] == 1.5 and params.layers["head"].vb[0] == 1.0

    def test_weight_decay_spares_biases(self):
        params = self._scalar_params(w=2.0, b=3.0)
        tcfg = TrainConfig(lr=0.1, momentum=0.0, weight_decay=0.5, decay_at=())
        sgd_step(params, _scalar_grads(0.0, 0.0), tcfg, 0)
        assert params.layers["head"].w[0, 0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)
        assert params.layers["head"].b[0] == 3.0


class TestMakeBatch:
    def _pool(self, n_fg=10, n_bg=10, theta=1.0):
        rng = np.random.default_rng(3)
        return Pool(
            fg_features=rng.normal(size=(n_fg, 4)),
            fg_class=np.ones(n_fg, dtype=int),
            fg_azimuth=np.full(n_fg, theta),
            bg_features=rng.normal(size=(n_bg, 4)),
            specs={1: ClassSpec(class_id=1, seed=0, feature_dim=4)},
        )

    def test_default_quarter_positive_split(self):
        x, labels = make_batch(self._pool(), TrainConfig(), np.random.default_rng(0))
        assert isinstance(labels, Labels)
        assert x.shape == (128, 4)
        assert len(labels) == 128
        assert np.sum(labels.class_id > 0) == 32
        assert np.sum(labels.class_id == 0) == 96

    def test_all_foreground(self):
        tcfg = TrainConfig(batch_size=16, positive_fraction=1.0)
        _, labels = make_batch(self._pool(n_bg=0), tcfg, np.random.default_rng(0))
        assert len(labels) == 16
        assert np.all(labels.class_id == 1)

    def test_flip_mirrors_bin(self):
        theta = bin_center(5, 24)
        pool = self._pool(theta=theta)
        tcfg = TrainConfig(batch_size=64, positive_fraction=1.0, flip_augment=True)
        _, labels = make_batch(pool, tcfg, np.random.default_rng(1))
        bins = {azimuth_to_bin(float(a), 24) for a in labels.azimuth}
        assert bins == {5, 24 - 5 + 2}  # bin 5 and its mirror image

    def test_no_flip_keeps_azimuth(self):
        tcfg = TrainConfig(batch_size=32, positive_fraction=1.0, flip_augment=False)
        pool = self._pool(theta=1.0)
        x, labels = make_batch(pool, tcfg, np.random.default_rng(2))
        assert len(labels) == 32
        assert np.all(labels.azimuth == 1.0)
        # unflipped features come from the pool verbatim
        assert all(any(np.array_equal(row, f) for f in pool.fg_features) for row in x)

    def test_background_rows_have_no_azimuth(self):
        _, labels = make_batch(self._pool(), TrainConfig(), np.random.default_rng(0))
        assert np.all(np.isnan(labels.azimuth[labels.class_id == 0]))
        assert np.all(np.isfinite(labels.azimuth[labels.class_id > 0]))

    def test_flip_without_class_spec(self):
        pool = _toy_pool()
        assert np.all(np.isnan(pool.fg_flip_clean)) and np.all(np.isnan(pool.fg_noise_sigma))
        tcfg = TrainConfig(batch_size=8, positive_fraction=1.0, flip_augment=True)
        with pytest.raises(ConfigError, match="class 1"):
            make_batch(pool, tcfg, np.random.default_rng(0))
        # without flips the spec is never needed
        make_batch(pool, dataclasses.replace(tcfg, flip_augment=False), np.random.default_rng(0))

    @pytest.mark.parametrize(
        "row, error, message",
        [
            (dict(fg_class=np.array([1, 0, 1])), ClassOutOfRange,
             "foreground row 1: class_id must be >= 1, got 0"),
            (dict(fg_class=np.array([1, 1, -2])), ClassOutOfRange,
             "foreground row 2: class_id must be >= 1, got -2"),
            (dict(fg_azimuth=np.array([0.5, 1.0, np.nan])), InvalidAngle,
             "foreground row 2: azimuth must be finite, got nan"),
            (dict(fg_class=np.array([1.0, 1.0, 1.0])), LayoutError, "integer class ids"),
            (dict(fg_azimuth=np.array([0.5, 1.0])), LayoutError, "(3,) azimuths"),
            (dict(bg_features=np.zeros((2, 3))), LayoutError, "pool features"),
        ],
        ids=["class-0", "negative-class", "nan-azimuth", "float-ids", "short-azimuths",
             "bg-width"],
    )
    def test_rows_checked_at_construction(self, row, error, message):
        fields = dict(
            fg_features=np.zeros((3, 4)), fg_class=np.ones(3, dtype=int),
            fg_azimuth=np.full(3, 0.5), bg_features=np.zeros((2, 4)), specs={},
        )
        with pytest.raises(error) as err:
            Pool(**{**fields, **row})
        assert message in str(err.value)

    def test_unflippable_rows_flagged(self):
        assert _toy_pool().has_unflippable
        assert not _mixed_noise_pool().has_unflippable

    def test_batch_labels_read_only(self):
        _, labels = make_batch(self._pool(), TrainConfig(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            labels.class_id[0] = 2

    def test_empty_pools(self):
        with pytest.raises(EmptyClassError):
            make_batch(self._pool(n_fg=0), TrainConfig(), np.random.default_rng(0))
        with pytest.raises(EmptyClassError):
            make_batch(
                self._pool(n_bg=0), TrainConfig(positive_fraction=0.5),
                np.random.default_rng(0),
            )


def _make_batch_oracle(pool, tcfg, rng):
    """Per-row batch assembly, one ``appearance`` draw and one ``Target``
    per flipped row: the reference that ``make_batch`` must match."""
    n_fg = math.ceil(tcfg.positive_fraction * tcfg.batch_size)
    n_bg = tcfg.batch_size - n_fg
    feats, targets = [], []
    if n_fg > 0:
        idx = rng.integers(0, pool.fg_features.shape[0], n_fg)
        flips = rng.random(n_fg) < 0.5 if tcfg.flip_augment else np.zeros(n_fg, bool)
        for i, do_flip in zip(idx, flips):
            cid = int(pool.fg_class[i])
            theta = float(pool.fg_azimuth[i])
            if do_flip:
                theta = flip_azimuth(theta)
                feats.append(appearance(pool.specs[cid], theta, rng))
            else:
                feats.append(pool.fg_features[i])
            targets.append(Target(cid, theta))
    if n_bg > 0:
        for i in rng.integers(0, pool.bg_features.shape[0], n_bg):
            feats.append(pool.bg_features[i])
            targets.append(Target(0))
    return np.array(feats), targets


def _mixed_noise_pool():
    """Hand-built pool: class 1 is noisy, class 2 noiseless and 2-fold
    symmetric; azimuths include 0, a bin edge, pi and 2*pi - ulp."""
    rng = np.random.default_rng(5)
    specs = {
        1: ClassSpec(class_id=1, seed=3, feature_dim=6, noise_sigma=0.3),
        2: ClassSpec(class_id=2, seed=3, feature_dim=6, symmetry_order=2, noise_sigma=0.0),
    }
    special = [0.0, math.pi / 24, math.pi, np.nextafter(TWO_PI, 0.0)]
    azimuth = np.concatenate([special, rng.uniform(0.0, TWO_PI, 16)])
    return Pool(
        fg_features=rng.normal(size=(20, 6)),
        fg_class=np.array([1, 2] * 10),
        fg_azimuth=azimuth,
        bg_features=rng.normal(size=(7, 6)),
        specs=specs,
    )


def _generated_pool():
    specs = [
        ClassSpec(class_id=1, seed=0, feature_dim=8),
        ClassSpec(class_id=2, seed=0, feature_dim=8, symmetry_order=4, noise_sigma=0.0),
    ]
    return build_pool(generate(4, 6, specs))


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


class TestMakeBatchEquivalence:
    """make_batch equals the per-row oracle bit for bit and leaves the
    generator in the same state."""

    @pytest.mark.parametrize("pool_fn", [_mixed_noise_pool, _generated_pool])
    @pytest.mark.parametrize("flip", [True, False])
    @pytest.mark.parametrize("positive_fraction", [0.25, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_per_row_oracle(self, pool_fn, flip, positive_fraction, seed):
        pool = pool_fn()
        tcfg = TrainConfig(batch_size=48, positive_fraction=positive_fraction, flip_augment=flip)
        rng = np.random.default_rng([seed, 9])
        ref_rng = np.random.default_rng([seed, 9])
        for _ in range(3):  # consecutive batches share one stream
            x, labels = make_batch(pool, tcfg, rng)
            ref_x, ref_targets = _make_batch_oracle(pool, tcfg, ref_rng)
            assert np.array_equal(_bits(x), _bits(ref_x))
            assert np.array_equal(labels.class_id, [t.class_id for t in ref_targets])
            ref_az = [np.nan if t.azimuth is None else t.azimuth for t in ref_targets]
            assert np.array_equal(_bits(labels.azimuth), _bits(ref_az))
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_both_noise_branches_taken(self):
        pool = _mixed_noise_pool()
        tcfg = TrainConfig(batch_size=48, positive_fraction=1.0, flip_augment=True)
        x, labels = make_batch(pool, tcfg, np.random.default_rng(0))
        flipped = ~np.isin(_bits(x), _bits(pool.fg_features)).all(axis=1)
        assert set(labels.class_id[flipped].tolist()) == {1, 2}

    def test_pool_tables(self):
        pool = _mixed_noise_pool()
        n = pool.fg_class.shape[0]
        for i in range(n):
            spec = pool.specs[int(pool.fg_class[i])]
            theta = flip_azimuth(float(pool.fg_azimuth[i]))
            assert _bits(pool.labels.azimuth[n + i]) == _bits(theta)
            assert pool.labels.class_id[n + i] == pool.fg_class[i]
            assert pool.fg_noise_sigma[i] == spec.noise_sigma
            clean = appearance_clean(spec, theta)
            assert np.array_equal(_bits(pool.fg_flip_clean[i]), _bits(clean))


@pytest.mark.parametrize("pool_fn", [_mixed_noise_pool, _generated_pool, _toy_pool])
def test_label_tables_equal_fresh_codecs(pool_fn):
    """The pool's label table holds, bit for bit, what ``azimuth_to_bin``
    and ``encode`` give for every foreground row and for the mirror of
    every row that can be flipped; the mirror rows of the rest and the
    background rows carry no class, bin 0 and a NaN embedding."""
    pool = pool_fn()
    n = pool.fg_class.shape[0]
    m = pool.bg_features.shape[0]
    flippable = ~np.isnan(pool.fg_noise_sigma)
    mirrors = [flip_azimuth(float(a)) for a in pool.fg_azimuth]
    labels = pool.labels
    assert len(labels) == len(pool.rows) == 2 * n + m
    assert labels.class_id.tolist() == (
        pool.fg_class.tolist() + np.where(flippable, pool.fg_class, 0).tolist() + [0] * m
    )
    for n_bins in (2, 8, 24, 360):
        bins = labels.bins(n_bins)
        for i in range(n):
            assert bins[i] == azimuth_to_bin(float(pool.fg_azimuth[i]), n_bins)
            want = azimuth_to_bin(mirrors[i], n_bins) if flippable[i] else 0
            assert bins[n + i] == want
        assert (bins[2 * n:] == 0).all()
    for dim in (2, 3):
        emb = labels.embeddings(dim)
        for i in range(n):
            fresh = encode(np.array([pool.fg_azimuth[i]]), dim)[0]
            assert np.array_equal(_bits(emb[i]), _bits(fresh))
            if flippable[i]:
                fresh = encode(np.array([mirrors[i]]), dim)[0]
                assert np.array_equal(_bits(emb[n + i]), _bits(fresh))
            else:
                assert np.isnan(emb[n + i]).all()
        assert np.isnan(emb[2 * n:]).all()


@pytest.mark.parametrize("m", [1, 7])
def test_background_table_rows(m):
    """The last m rows of the pool's tables are its background rows: the
    background features given, in order, labelled class 0 with a NaN
    azimuth, bin 0 and a NaN embedding."""
    base = _mixed_noise_pool()
    bg = np.random.default_rng(m).normal(size=(m, 6))
    pool = dataclasses.replace(base, bg_features=bg)
    n = pool.fg_class.shape[0]
    assert pool.rows.shape == (2 * n + m, 6)
    assert np.array_equal(_bits(pool.rows[2 * n:]), _bits(bg))
    assert np.array_equal(_bits(pool.rows[: 2 * n]), _bits(base.rows[: 2 * n]))
    labels = pool.labels
    assert (labels.class_id[2 * n:] == 0).all()
    assert np.isnan(labels.azimuth[2 * n:]).all()
    assert (labels.bins(24)[2 * n:] == 0).all()
    for dim in (2, 3):
        assert labels.embeddings(dim)[2 * n:].shape == (m, dim)
        assert np.isnan(labels.embeddings(dim)[2 * n:]).all()


@pytest.mark.parametrize("pool_fn", [_mixed_noise_pool, _generated_pool])
@pytest.mark.parametrize("flip", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_rows_are_pool_rows(pool_fn, flip, seed):
    """Every batch row is, bit for bit, the ``pool.rows`` row its label was
    drawn from, except a flipped row of a noisy class, which is that
    mirror row plus its noise: the draws replayed from the batch
    generator's state, sigma times a standard normal row."""
    pool = pool_fn()
    n = pool.fg_class.shape[0]
    tcfg = TrainConfig(batch_size=40, positive_fraction=0.5, flip_augment=flip)
    rng = np.random.default_rng([seed, 3])
    for _ in range(3):
        replay = np.random.default_rng(0)
        replay.bit_generator.state = rng.bit_generator.state
        x, labels = make_batch(pool, tcfg, rng)
        _, idx = labels._source
        n_fg = math.ceil(tcfg.positive_fraction * tcfg.batch_size)
        replay.integers(0, n, n_fg)
        want = pool.rows[idx]
        if flip:
            replay.random(n_fg)
            mirror = idx[:n_fg] >= n
            sigma = pool.fg_noise_sigma[idx[:n_fg] - n * mirror]
            noisy = (mirror & (sigma > 0.0)).nonzero()[0]
            want[noisy] += sigma[noisy, None] * replay.standard_normal((noisy.size, x.shape[1]))
        assert np.array_equal(_bits(x), _bits(want))
        assert flip == bool(np.any(idx[:n_fg] >= n))
        assert (idx[n_fg:] >= 2 * n).all()


def test_batch_labels_are_table_rows():
    """A batch's labels derive nothing themselves: their bins and
    embeddings are rows of the pool's, which are derived once."""
    pool = _mixed_noise_pool()
    tcfg = TrainConfig(batch_size=24, positive_fraction=0.5, flip_augment=True)
    rng = np.random.default_rng(0)
    _, first = make_batch(pool, tcfg, rng)
    table_bins = pool.labels.bins(6)
    for labels in (first, make_batch(pool, tcfg, rng)[1]):
        _, rows = labels._source
        assert labels._source[0] is pool.labels
        assert np.array_equal(labels.bins(6), table_bins[rows])
        assert np.array_equal(_bits(labels.embeddings(3)), _bits(pool.labels.embeddings(3)[rows]))
    assert pool.labels.bins(6) is table_bins


def _all_noisy_pool():
    specs = [
        ClassSpec(class_id=1, seed=1, feature_dim=8),
        ClassSpec(class_id=2, seed=1, feature_dim=8, symmetry_order=2, noise_sigma=0.1),
    ]
    return build_pool(generate(6, 6, specs))


# The straightforward training step, as it stood before the step was cut
# down to fewer NumPy calls: it is the oracle the lean step must match bit
# for bit.  Batches come from ``_make_batch_oracle``; labels are derived
# per sample with the scalar codecs.


def _oracle_log_softmax(z):
    m = np.max(z, axis=1, keepdims=True)
    shifted = z - m
    return shifted - np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))


def _oracle_huber(r, delta):
    small = np.abs(r) <= delta
    value = np.where(small, 0.5 * r * r, delta * (np.abs(r) - 0.5 * delta))
    return value, np.clip(r, -delta, delta)


def _oracle_loss(spec, cfg, out, targets):
    cls = np.array([t.class_id for t in targets])
    n = cls.size
    rows = np.arange(n)
    fg = np.flatnonzero(cls > 0)
    az = [targets[i].azimuth for i in fg]
    if spec.kind == "regression":
        emb = np.array([encode(a, cfg.n_dims) for a in az])
        value, deriv = _oracle_huber(out[rows, cls - 1] - emb, spec.delta)
        grad = np.zeros_like(out)
        grad[rows, cls - 1] = deriv
        return float(np.sum(value)), grad
    if spec.kind in ("classification", "geometric"):
        bins = np.array([azimuth_to_bin(a, cfg.n_bins) for a in az])
        logp = _oracle_log_softmax(out[rows, cls - 1])
        if spec.kind == "classification":
            value = -float(np.sum(logp[rows, bins - 1]))
            row_grad = np.exp(logp)
            row_grad[rows, bins - 1] -= 1.0
        else:
            sigma = default_geometric_sigma(cfg.n_bins) if spec.sigma is None else spec.sigma
            d = np.abs(np.arange(1, cfg.n_bins + 1)[None, :] - bins[:, None])
            weights = np.exp(-np.minimum(d, cfg.n_bins - d) / sigma)
            value = -float(np.sum(weights * logp))
            row_grad = -weights + np.sum(weights, axis=1, keepdims=True) * np.exp(logp)
        grad = np.zeros_like(out)
        grad[rows, cls - 1] = row_grad
        return value, grad
    if spec.kind == "joint_regression":
        logp = _oracle_log_softmax(out.det)
        value = -float(np.sum(logp[rows, cls]))
        det_grad = np.exp(logp)
        det_grad[rows, cls] -= 1.0
        pose_grad = np.zeros_like(out.pose)
        if fg.size and spec.lam != 0.0:
            emb = np.array([encode(a, cfg.n_dims) for a in az])
            hval, hderiv = _oracle_huber(out.pose[fg, cls[fg] - 1] - emb, spec.delta)
            value += spec.lam * float(np.sum(hval))
            pose_grad[fg, cls[fg] - 1] = spec.lam * hderiv
        return value, JointRegOutputs(det_grad, pose_grad)
    flat = np.concatenate([out.obj.reshape(n, -1), out.back[:, None]], axis=1)
    logp = _oracle_log_softmax(flat)
    slots = np.full(n, cfg.n_classes * cfg.n_bins)
    bins = np.array([azimuth_to_bin(a, cfg.n_bins) for a in az], dtype=int)
    slots[fg] = (cls[fg] - 1) * cfg.n_bins + bins - 1
    value = -float(np.sum(logp[rows, slots]))
    flat_grad = np.exp(logp)
    flat_grad[rows, slots] -= 1.0
    return value, JointClsOutputs(flat_grad[:, :-1].reshape(out.obj.shape), flat_grad[:, -1].copy())


def _oracle_chains(cfg):
    n = len(cfg.trunk_widths)
    if cfg.head != "joint_reg":
        return [f"trunk{i}" for i in range(n)], ["head"]
    s = cfg.split_depth
    return ([f"trunk{i}" for i in range(s)], [f"det{i}" for i in range(n - s)],
            [f"pose{i}" for i in range(n - s)])


def _oracle_forward(params, cfg, x):
    cache = {}

    def chain(names, a, relu):
        for name in names:
            pre = a @ params.layers[name].w + params.layers[name].b
            cache[name] = (a, pre if relu else None)
            a = np.maximum(pre, 0.0) if relu else pre
        return a

    b = x.shape[0]
    if cfg.head == "joint_reg":
        shared, det, pose = _oracle_chains(cfg)
        a = chain(shared, x, True)
        out = JointRegOutputs(
            chain(["det_head"], chain(det, a, True), False),
            chain(["pose_head"], chain(pose, a, True), False).reshape(b, cfg.n_classes, -1),
        )
    else:
        trunk, head = _oracle_chains(cfg)
        raw = chain(head, chain(trunk, x, True), False)
        if cfg.head == "joint_cls":
            out = JointClsOutputs(raw[:, :-1].reshape(b, cfg.n_classes, cfg.n_bins), raw[:, -1])
        else:
            out = raw.reshape(b, cfg.n_classes, -1)
    return out, cache


def _oracle_backward(params, cfg, x, out_grad, cache):
    grads = {}

    def back(names, delta):
        for name in reversed(names):
            a_in, pre = cache[name]
            if pre is not None:
                delta = delta * (pre > 0.0)
            grads[name] = (a_in.T @ delta, delta.sum(axis=0))
            delta = delta @ params.layers[name].w.T
        return delta

    b = x.shape[0]
    if cfg.head == "joint_reg":
        shared, det, pose = _oracle_chains(cfg)
        d_det = back(det + ["det_head"], out_grad.det)
        d_pose = back(pose + ["pose_head"], out_grad.pose.reshape(b, -1))
        back(shared, d_det + d_pose)
    elif cfg.head == "joint_cls":
        back(sum(_oracle_chains(cfg), []), np.concatenate(
            [out_grad.obj.reshape(b, -1), out_grad.back[:, None]], axis=1))
    else:
        back(sum(_oracle_chains(cfg), []), out_grad.reshape(b, -1))
    return grads


def _oracle_sgd(params, grads, tcfg, t):
    lr = effective_lr(tcfg, t)
    for name, (dw, db) in grads.items():
        layer = params.layers[name]
        layer.vw = tcfg.momentum * layer.vw + dw + tcfg.weight_decay * layer.w
        layer.vb = tcfg.momentum * layer.vb + db
        layer.w = layer.w - lr * layer.vw
        layer.b = layer.b - lr * layer.vb


def _layer_bits(params):
    """Every layer's weights, biases and their momentum, as bits."""
    return {
        name: [_bits(getattr(layer, attr)).copy() for attr in ("w", "b", "vw", "vb")]
        for name, layer in params.layers.items()
    }


def _oracle_train(pool, cfg, tcfg, spec):
    """The oracle's parameters, log, batch losses and batch generator after
    training, and its parameters (``_layer_bits``) after every step."""
    params = init_params(cfg)
    rng = np.random.default_rng([tcfg.seed, 0])
    probe_x, probe_t = _make_batch_oracle(
        pool, dataclasses.replace(tcfg, flip_augment=False), np.random.default_rng([tcfg.seed, 1])
    )
    log, values, steps = [], [], []
    for t in range(tcfg.total_iters):
        if t % tcfg.log_every == 0 or t == tcfg.total_iters - 1:
            value, _ = _oracle_loss(spec, cfg, _oracle_forward(params, cfg, probe_x)[0], probe_t)
            log.append((t, effective_lr(tcfg, t), value, value / len(probe_t)))
        x, targets = _make_batch_oracle(pool, tcfg, rng)
        out, cache = _oracle_forward(params, cfg, x)
        value, grad = _oracle_loss(spec, cfg, out, targets)
        _oracle_sgd(params, _oracle_backward(params, cfg, x, grad, cache), tcfg, t)
        values.append(value)
        steps.append(_layer_bits(params))
    return params, log, values, rng, steps


def _assert_train_matches_oracle(pool, cfg, tcfg, spec):
    """``train`` equals ``_oracle_train`` bit for bit: its log, its batch
    losses, and the parameters and momentum a callback copies after every
    step (``params.copy()``) and that it returns.  Returns the oracle's
    final parameters and batch generator."""
    ref_params, ref_log, ref_values, ref_rng, ref_steps = _oracle_train(pool, cfg, tcfg, spec)
    values, copies = [], []

    def keep(t, params, value):
        values.append(value)
        copies.append(params.copy())

    res = train(pool, cfg, tcfg, spec, callback=keep)
    assert [(e.iteration, e.lr, e.loss, e.loss_per_sample) for e in res.log] == ref_log
    assert values == ref_values
    assert len(copies) == len(ref_steps) == tcfg.total_iters
    for t, (kept, ref) in enumerate(zip(copies, ref_steps)):
        got = _layer_bits(kept)
        assert got.keys() == ref.keys()
        for name in ref:
            for attr, a, b in zip(("w", "b", "vw", "vb"), got[name], ref[name]):
                assert np.array_equal(a, b), (t, name, attr)
    for name, bits in _layer_bits(res.params).items():
        for a, b in zip(bits, ref_steps[-1][name]):
            assert np.array_equal(a, b), name
    return ref_params, ref_rng


def _step_cases():
    cases = []
    for kind, head in LOSS_HEADS.items():
        for widths in [(7,), (7, 5)]:
            for split in (range(len(widths) + 1) if head == "joint_reg" else [1]):
                for decay in (0.0, 5e-3):
                    for flip in (True, False):
                        cases.append((kind, widths, split, decay, flip))
    cases.append(("joint_regression", (7,), 1, 5e-3, True, 0.0))  # the detector's lam
    # lam 0, whose all-zero pose branch is not back-propagated, at every split
    for split in range(3):
        for decay in (0.0, 5e-3):
            cases.append(("joint_regression", (7, 5), split, decay, True, 0.0))
    return [c if len(c) == 6 else c + (0.5,) for c in cases]


class TestStepEquivalence:
    """train() and the step functions equal the straightforward step above
    bit for bit: parameters, velocities, log, batch losses and the batch
    generator's state after every step."""

    @pytest.mark.parametrize("pool_fn", [_mixed_noise_pool, _all_noisy_pool])
    @pytest.mark.parametrize("kind, widths, split, decay, flip, lam", _step_cases())
    def test_matches_oracle(self, pool_fn, kind, widths, split, decay, flip, lam):
        pool = pool_fn()
        head = LOSS_HEADS[kind]
        cfg = NetConfig(
            input_dim=pool.fg_features.shape[1], trunk_widths=widths, head=head, n_classes=2,
            n_bins=6, n_dims=2 if kind == "joint_regression" else 3, split_depth=split, seed=3,
        )
        tcfg = TrainConfig(
            lr=0.05, batch_size=12, total_iters=9, decay_at=(6,), log_every=4,
            positive_fraction=1.0 if kind in POSE_ONLY_LOSSES else 0.5,
            flip_augment=flip, weight_decay=decay, seed=4,
        )
        spec = LossSpec(kind, lam=lam, delta=0.7)
        ref_params, ref_rng = _assert_train_matches_oracle(pool, cfg, tcfg, spec)

        # the same steps through the public step functions, generator included
        params = init_params(cfg)
        fn = _loss_fn(spec, cfg)
        rng = np.random.default_rng([tcfg.seed, 0])
        for t in range(tcfg.total_iters):
            x, labels = make_batch(pool, tcfg, rng)
            out, cache = forward(params, cfg, x, want_cache=True)
            step = fn(out, labels)
            sgd_step(params, backward(params, cfg, x, step.grad, cache), tcfg, t)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        for name, ref in ref_params.layers.items():
            assert np.array_equal(_bits(params.layers[name].vw), _bits(ref.vw))


    @pytest.mark.parametrize("kind, n_dims, flip", [
        ("regression", 3, False), ("regression", 2, False), ("classification", 3, False),
        ("classification", 3, True), ("geometric", 3, True),
    ])
    def test_one_class_pool(self, kind, n_dims, flip):
        """The symmetry probe's shape: one 2-fold symmetric class, batches
        of foreground rows only, no weight decay."""
        pool = build_pool(generate(7, 5, [
            ClassSpec(class_id=1, seed=2, feature_dim=8, symmetry_order=2, noise_sigma=0.01)
        ]))
        cfg = NetConfig(input_dim=8, trunk_widths=(9,), head=LOSS_HEADS[kind], n_classes=1,
                        n_bins=6, n_dims=n_dims, seed=5)
        tcfg = TrainConfig(lr=0.05, batch_size=16, positive_fraction=1.0, total_iters=8,
                           decay_at=(4,), log_every=3, weight_decay=0.0, flip_augment=flip,
                           seed=6)
        _assert_train_matches_oracle(pool, cfg, tcfg, LossSpec(kind))

    @pytest.mark.parametrize("pool_fn", [_mixed_noise_pool, _all_noisy_pool])
    @pytest.mark.parametrize("kind, lam", [
        ("joint_regression", 0.0), ("joint_regression", 0.5), ("joint_classification", 1.0),
    ])
    @pytest.mark.parametrize("batch_size", [1, 2, 10])
    def test_quarter_positive_batches(self, pool_fn, kind, lam, batch_size):
        """The detector's and the joint classifier's split, a quarter of
        foreground rows, at batch sizes whose ceiling rounds it up: 1 of 1,
        1 of 2 and 3 of 10."""
        pool = pool_fn()
        cfg = NetConfig(input_dim=pool.fg_features.shape[1], trunk_widths=(7,),
                        head=LOSS_HEADS[kind], n_classes=2, n_bins=6, seed=3)
        tcfg = TrainConfig(lr=0.05, batch_size=batch_size, positive_fraction=0.25,
                           total_iters=8, decay_at=(5,), log_every=3, weight_decay=5e-3, seed=4)
        _assert_train_matches_oracle(pool, cfg, tcfg, LossSpec(kind, lam=lam, delta=0.7))


@pytest.mark.parametrize(
    "head, kind", [("cls", "classification"), ("joint_cls", "joint_classification")]
)
def test_class_beyond_net_refused_before_any_step(head, kind):
    """A pool row whose class the net has no output for is refused, naming
    the row, before any step, so the callback is never called."""
    pool = _mixed_noise_pool()  # classes 1 and 2 alternate; row 1 is the first of class 2
    cfg = NetConfig(input_dim=6, trunk_widths=(4,), head=head, n_classes=1, n_bins=6)
    tcfg = TrainConfig(batch_size=4, positive_fraction=1.0 if head == "cls" else 0.5,
                       total_iters=3, flip_augment=False)
    calls = []
    with pytest.raises(
        ClassOutOfRange, match=r"^foreground row 1 has class 2 but the net covers 1\.\.1$"
    ):
        train(pool, cfg, tcfg, LossSpec(kind), callback=lambda *a: calls.append(a))
    assert calls == []


def test_lam0_non_finite_pose_activation_matches_full_backprop():
    """A detector (lam 0) whose pose branch holds a non-finite activation
    is back-propagated in full, so its NaN spreads step by step and the
    run diverges exactly where the straightforward step diverges, with
    the same bits in every parameter before that."""
    pool = _all_noisy_pool()
    cfg = NetConfig(
        input_dim=pool.fg_features.shape[1], trunk_widths=(7, 5), head="joint_reg",
        n_classes=2, n_dims=2, split_depth=1, seed=3,
    )
    tcfg = TrainConfig(lr=0.05, batch_size=12, total_iters=12, decay_at=(6,), log_every=4,
                       positive_fraction=0.5, weight_decay=5e-3, seed=4)
    spec = LossSpec("joint_regression", lam=0.0, delta=0.7)

    def poison(t, layers):
        if t == 2:  # an infinite pose0 unit: the pose head's input is not finite
            layers["pose0"].b[1] = np.inf

    steps = []

    def callback(t, params, value):
        poison(t, params.layers)
        steps.append((value, params.copy()))

    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
        train(pool, cfg, tcfg, spec, callback=callback)

    ref = init_params(cfg)
    rng = np.random.default_rng([tcfg.seed, 0])
    with np.errstate(all="ignore"):
        for t in range(tcfg.total_iters):
            x, targets = _make_batch_oracle(pool, tcfg, rng)
            out, cache = _oracle_forward(ref, cfg, x)
            value, grad = _oracle_loss(spec, cfg, out, targets)
            if not math.isfinite(value):
                break
            _oracle_sgd(ref, _oracle_backward(ref, cfg, x, grad, cache), tcfg, t)
            poison(t, ref.layers)
            value_then, params = steps[t]
            assert value_then == value
            for name, layer in ref.layers.items():
                for attr in ("w", "b", "vw", "vb"):
                    got = getattr(params.layers[name], attr)
                    assert np.array_equal(_bits(got), _bits(getattr(layer, attr))), (t, name, attr)
    assert err.value.iteration == t == len(steps)
    assert np.isnan(steps[3][1].layers["pose_head"].w).any()  # the NaN did spread
    assert not np.isnan(steps[2][1].layers["pose_head"].w).any()


class TestTrain:
    TCFG = TrainConfig(
        lr=0.05, batch_size=16, positive_fraction=1.0, total_iters=300,
        decay_at=(200,), flip_augment=False, weight_decay=0.0, seed=0,
    )
    CFG = NetConfig(input_dim=2, trunk_widths=(8,), head="cls", n_classes=1, n_bins=2, seed=0)

    def test_bitwise_determinism(self):
        pool = _toy_pool()
        a = train(pool, self.CFG, self.TCFG, "classification")
        b = train(pool, self.CFG, self.TCFG, "classification")
        assert a.log == b.log
        for name in a.params.layers:
            np.testing.assert_array_equal(a.params.layers[name].w, b.params.layers[name].w)
            np.testing.assert_array_equal(a.params.layers[name].b, b.params.layers[name].b)

    def test_lr_zero_freezes_loss(self):
        import dataclasses

        tcfg = dataclasses.replace(self.TCFG, lr=0.0, total_iters=100)
        res = train(_toy_pool(), self.CFG, tcfg, "classification")
        losses = [e.loss for e in res.log]
        assert max(losses) - min(losses) <= 1e-12

    def test_separable_toy_converges(self):
        import dataclasses

        tcfg = dataclasses.replace(self.TCFG, total_iters=2000, decay_at=(1500,))
        res = train(_toy_pool(), self.CFG, tcfg, "classification")
        assert res.log[-1].loss_per_sample < 0.1

    def test_log_iterations(self):
        import dataclasses

        tcfg = dataclasses.replace(self.TCFG, total_iters=250, log_every=100)
        res = train(_toy_pool(), self.CFG, tcfg, "classification")
        assert [e.iteration for e in res.log] == [0, 100, 200, 249]

    def test_pose_loss_needs_full_foreground(self):
        import dataclasses

        tcfg = dataclasses.replace(self.TCFG, positive_fraction=0.5)
        with pytest.raises(ConfigError):
            train(_toy_pool(), self.CFG, tcfg, "classification")

    def test_loss_head_mismatch(self):
        cfg = NetConfig(input_dim=2, trunk_widths=(4,), head="reg", n_classes=1)
        with pytest.raises(ConfigError):
            train(_toy_pool(), cfg, self.TCFG, "classification")

    def test_divergence_reports_iteration(self):
        import dataclasses

        tcfg = dataclasses.replace(self.TCFG, lr=1e9, total_iters=50)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
            train(_toy_pool(), self.CFG, tcfg, "classification")
        assert err.value.iteration is not None

    @pytest.mark.parametrize("layer, attr, where", [
        ("trunk0", "w", "layer trunk0 w"),
        ("trunk0", "b", "layer trunk0 b"),
        ("head", "w", "layer head w"),
        ("head", "b", "layer head b"),
    ])
    def test_divergence_names_where(self, layer, attr, where):
        def poison(t, params, value):
            if t == 3:
                getattr(params.layers[layer], attr)[0] = np.nan

        with pytest.raises(DivergenceError) as err:
            train(_toy_pool(), self.CFG, self.TCFG, "classification", callback=poison)
        probe = train(_toy_pool(), self.CFG, self.TCFG, "classification").log[0].loss
        assert err.value.iteration == 4
        assert err.value.probe_loss == probe
        assert str(err.value) == (
            f"non-finite loss nan; first non-finite value in {where}; "
            f"last finite probe loss {probe}"
        )

    def test_divergence_names_the_activation_before_the_weights(self):
        pool = _toy_pool()

        def poison(t, params, value):
            if t == 0:  # the next batch's inputs and trunk0's weights
                pool.fg_features[:] = np.nan
                params.layers["trunk0"].w[0] = np.nan

        with pytest.raises(DivergenceError) as err:
            train(pool, self.CFG, self.TCFG, "classification", callback=poison)
        assert err.value.iteration == 1
        assert "first non-finite value in layer trunk0 activation;" in str(err.value)

    def test_divergence_names_a_non_finite_input(self):
        pool = _toy_pool()
        pool.fg_features[5, 1] = np.inf
        tcfg = dataclasses.replace(self.TCFG, log_every=1)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as err:
            train(pool, self.CFG, tcfg, "classification")
        assert "first non-finite value in layer trunk0 activation" in str(err.value)
        assert math.isfinite(err.value.probe_loss)


class TestPredict:
    def test_cls_one_hot(self):
        cfg = NetConfig(input_dim=2, trunk_widths=(), head="cls", n_classes=2, n_bins=8)
        params = _bare_params(cfg)
        b = np.zeros(16)
        b[4] = 10.0  # class 1, bin 5
        b[8 + 2] = 10.0  # class 2, bin 3
        params.layers["head"].b = b
        bins = azimuth_to_bin(predict(params, cfg, np.zeros((3, 2))).azimuths, 8)
        assert np.all(bins[:, 0] == 5)
        assert np.all(bins[:, 1] == 3)

    def test_reg_exact_embedding(self):
        theta = 2.3
        cfg = NetConfig(input_dim=2, trunk_widths=(), head="reg", n_classes=1, n_dims=3)
        params = _bare_params(cfg)
        params.layers["head"].b = encode(theta, 3)
        pred = predict(params, cfg, np.zeros((2, 2)))
        for angle in pred.azimuths.ravel():
            assert circular_difference(angle, theta) < 1e-9

    def test_joint_cls_background_dominant(self):
        cfg = NetConfig(input_dim=2, trunk_widths=(), head="joint_cls", n_classes=2, n_bins=4)
        params = _bare_params(cfg)
        b = np.zeros(9)
        b[-1] = 30.0
        params.layers["head"].b = b
        pred = predict(params, cfg, np.zeros((2, 2)))
        assert np.all(pred.scores < 1e-6)

    def test_joint_reg_probabilities(self):
        cfg = NetConfig(
            input_dim=2, trunk_widths=(3,), head="joint_reg", n_classes=2,
            n_dims=2, split_depth=0,
        )
        params = init_params(cfg)
        x = np.random.default_rng(4).normal(size=(5, 2))
        pred = predict(params, cfg, x)
        background = softmax(forward(params, cfg, x).det)[:, 0]
        np.testing.assert_allclose(pred.scores.sum(axis=1) + background, 1.0, atol=1e-12)
        assert pred.azimuths.shape == (5, 2)


class TestClsPredictionBins:
    """Predicted bin: argmax over each class row, ties to the smallest bin."""

    @staticmethod
    def _bins(logits, head="cls"):
        logits = np.asarray(logits, dtype=float)
        n_classes, n_bins = logits.shape
        cfg = NetConfig(input_dim=1, trunk_widths=(), head=head, n_classes=n_classes,
                        n_bins=n_bins)
        params = _bare_params(cfg)
        params.layers["head"].b[: logits.size] = logits.ravel()
        return azimuth_to_bin(predict(params, cfg, np.zeros((1, 1))).azimuths[0], n_bins).tolist()

    def test_plain(self):
        assert self._bins([[0.0, 5.0, 1.0]]) == [2]

    def test_tie_breaks_low(self):
        assert self._bins(np.zeros((1, 3))) == [1]
        assert self._bins([[3.0, 3.0, 1.0]]) == [1]

    def test_class_row_selection(self):
        assert self._bins([[0.0, 1.0], [9.0, 0.0]]) == [2, 1]

    def test_joint_cls_same_rule(self):
        logits = [[3.0, 3.0, 1.0], [0.0, 1.0, 1.0]]
        assert self._bins(logits, head="joint_cls") == self._bins(logits) == [1, 2]


def test_layer_plan_orders_split_branches():
    cfg = NetConfig(
        input_dim=3, trunk_widths=(4, 5), head="joint_reg", n_classes=2,
        n_dims=2, split_depth=1,
    )
    names = [n for n, _, _ in layer_plan(cfg)]
    assert names == ["trunk0", "det0", "det_head", "pose0", "pose_head"]


def test_build_pool_counts():
    from viewbench.synthetic import default_benchmark

    train_ds, _ = default_benchmark(seed=0, n_train_scenes=4, n_test_scenes=1)
    pool = build_pool(train_ds)
    n_fg = pool.fg_features.shape[0]
    n_bg = pool.bg_features.shape[0]
    total = len(train_ds.proposals.iou)
    assert n_fg + n_bg == total
    assert n_fg > 0 and n_bg > 0


@pytest.mark.parametrize("n_scenes", [0, 1, 9])
def test_build_pool_equals_the_per_proposal_loop(n_scenes):
    """The pool read from the proposal table by column holds the arrays
    that the loop over proposal records built, bit for bit."""
    from test_codec_equivalence import dataset_records
    from viewbench.synthetic import default_class_specs, generate

    ds = generate(5, n_scenes, default_class_specs(feature_dim=3))
    fg_feat, fg_cls, fg_az, bg_feat = [], [], [], []
    for scene in dataset_records(ds).scenes:
        for prop in scene.proposals:
            if prop.matched_gt < 0:
                bg_feat.append(prop.feature)
            else:
                g = scene.gts[prop.matched_gt]
                fg_feat.append(prop.feature)
                fg_cls.append(g.class_id)
                fg_az.append(g.azimuth)
    pool = build_pool(ds)
    for got, want in (
        (pool.fg_features, np.array(fg_feat).reshape(-1, 3)),
        (pool.fg_class, np.array(fg_cls, dtype=int)),
        (pool.fg_azimuth, np.array(fg_az, dtype=float)),
        (pool.bg_features, np.array(bg_feat).reshape(-1, 3)),
    ):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    assert pool.fg_features.shape[0] + pool.bg_features.shape[0] == ds.n_samples
