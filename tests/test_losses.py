"""Loss values, gradients, and closed forms.

Closed-form expectations come from hand evaluation: a uniform softmax over n
slots gives cross-entropy ln(n); the geometric loss on uniform logits is
ln(n) times the weight sum.  Gradients are spot-checked here against central
finite differences; the full seeded sweep lives in the gradcheck module.
"""

import math

import numpy as np
import pytest

from viewbench.angles import azimuth_to_bin, bin_center, encode
from viewbench.errors import (
    BackgroundInPoseLoss,
    BackgroundInRegression,
    ClassOutOfRange,
    ConfigError,
    InvalidAngle,
    InvalidParameter,
    LayoutError,
)
from viewbench.losses import (
    JointClsOutputs,
    JointRegOutputs,
    Labels,
    LossSpec,
    Target,
    as_labels,
    classification_loss,
    geometric_classification_loss,
    huber,
    joint_classification_loss,
    joint_detection_score,
    joint_detection_scores,
    joint_regression_loss,
    log_softmax,
    regression_loss,
)

EPS = 1e-5


def _fd_grad(fn, x):
    """Central finite differences of a scalar function over a flat copy."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + EPS
        hi = fn(x)
        flat[i] = orig - EPS
        lo = fn(x)
        flat[i] = orig
        out[i] = (hi - lo) / (2 * EPS)
    return g


def _max_rel_err(analytic, fd):
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
    return float(np.max(np.abs(analytic - fd) / denom))


def _fg_targets(rng, n, n_classes):
    return [
        Target(int(rng.integers(1, n_classes + 1)), float(rng.uniform(0, 2 * math.pi)))
        for _ in range(n)
    ]


class TestHuber:
    def test_minimum(self):
        assert huber(0.0, 1.0) == (0.0, 0.0)

    def test_quadratic_branch(self):
        v, d = huber(0.5, 1.0)
        assert v == pytest.approx(0.125, abs=1e-15)
        assert d == pytest.approx(0.5, abs=1e-15)

    def test_linear_branch(self):
        v, d = huber(2.0, 1.0)
        assert v == pytest.approx(1.5, abs=1e-15)
        assert d == pytest.approx(1.0, abs=1e-15)

    def test_symmetry(self):
        v, d = huber(-2.0, 1.0)
        assert (v, d) == (1.5, -1.0)

    def test_bad_delta(self):
        with pytest.raises(InvalidParameter):
            huber(1.0, 0.0)
        with pytest.raises(InvalidParameter):
            huber(1.0, -2.0)


class TestTarget:
    def test_background_with_pose_rejected(self):
        with pytest.raises(LayoutError):
            Target(0, 1.0)

    def test_foreground_without_pose_rejected(self):
        with pytest.raises(LayoutError):
            Target(2)

    def test_negative_class_rejected(self):
        with pytest.raises(ClassOutOfRange):
            Target(-1)

    def test_bad_loss_kind(self):
        with pytest.raises(ConfigError):
            LossSpec("squared")


class TestLabels:
    def test_from_targets(self):
        labels = as_labels([Target(2, 0.5), Target(0), Target(1, 6.0)])
        assert labels.class_id.tolist() == [2, 0, 1]
        assert labels.class_id.dtype.kind == "i"
        assert labels.azimuth[0] == 0.5 and labels.azimuth[2] == 6.0
        assert np.isnan(labels.azimuth[1])
        assert len(labels) == 3
        assert as_labels(labels) is labels

    def test_empty(self):
        assert len(as_labels([])) == 0

    @pytest.mark.parametrize(
        "class_id, azimuth, error, message",
        [
            ([1, -1, 0], [0.5, np.nan, 1.0], ClassOutOfRange,
             "sample 1: class_id must be >= 0, got -1"),
            ([1, 0, -1], [0.5, 1.0, np.nan], LayoutError,
             "sample 1: background target must not carry an azimuth"),
            ([0, 2, 0], [np.nan, np.nan, 1.0], LayoutError,
             "sample 1: foreground target requires an azimuth"),
            ([1, 1, 0], [0.5, np.inf, 1.0], InvalidAngle,
             "sample 1: azimuth must be finite, got inf"),
            ([1, 1], [-np.inf, np.nan], InvalidAngle,
             "sample 0: azimuth must be finite, got -inf"),
        ],
        ids=["negative-class", "background-azimuth", "missing-azimuth", "inf", "first-wins"],
    )
    def test_first_bad_row_reported(self, class_id, azimuth, error, message):
        with pytest.raises(error) as err:
            Labels(np.array(class_id), np.array(azimuth))
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "class_id, azimuth",
        [
            (np.array([1.0, 2.0]), np.array([0.1, 0.2])),
            (np.array([[1, 2]]), np.array([[0.1, 0.2]])),
            (np.array([1, 2]), np.array([0.1])),
        ],
        ids=["float-ids", "two-dims", "length-mismatch"],
    )
    def test_bad_layout(self, class_id, azimuth):
        with pytest.raises(LayoutError):
            Labels(class_id, azimuth)


class TestLabelsDerived:
    """Bins and embeddings are derived once per Labels object, from
    read-only copies of the arrays."""

    def test_arrays_are_read_only_copies(self):
        cls, az = np.array([1, 0, 2]), np.array([0.5, np.nan, 6.0])
        labels = Labels(cls, az)
        cls[0], az[0] = 2, 1.0
        assert labels.class_id[0] == 1 and labels.azimuth[0] == 0.5
        for arr in (labels.class_id, labels.azimuth, labels.bins(8), labels.embeddings(3)):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_values(self):
        labels = as_labels([Target(2, 0.5), Target(0), Target(1, 6.0)])
        assert labels.bins(8).tolist() == [azimuth_to_bin(0.5, 8), 0, azimuth_to_bin(6.0, 8)]
        emb = labels.embeddings(2)
        assert np.array_equal(emb[[0, 2]], [encode(0.5, 2), encode(6.0, 2)])
        assert np.isnan(emb[1]).all()

    def test_derived_once_per_key(self, monkeypatch):
        import viewbench.losses as losses_mod

        calls = {"bins": 0, "encode": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(losses_mod, "azimuth_to_bin", counting("bins", azimuth_to_bin))
        monkeypatch.setattr(losses_mod, "encode", counting("encode", encode))
        labels = as_labels(_fg_targets(np.random.default_rng(0), 6, 2))
        outputs = np.random.default_rng(1).normal(size=(6, 2, 8))
        for _ in range(3):
            classification_loss(outputs, labels)
            geometric_classification_loss(outputs, labels)
            regression_loss(outputs[:, :, :3], labels, dim=3)
        assert calls == {"bins": 1, "encode": 1}
        assert labels.bins(8) is labels.bins(8)
        labels.bins(4)
        assert calls["bins"] == 2


class TestJointClsFlat:
    def test_from_flat_shares_memory(self):
        flat = np.arange(2 * 7, dtype=float).reshape(2, 7)
        out = JointClsOutputs.from_flat(flat, 2, 3)
        assert out.flat is flat
        assert np.shares_memory(out.obj, flat) and np.shares_memory(out.back, flat)
        assert np.array_equal(out.obj, flat[:, :-1].reshape(2, 2, 3))
        assert np.array_equal(out.back, flat[:, -1])

    def test_assembled_flat(self):
        out = _joint_cls_out(3, 2, n_bins=4)
        want = np.concatenate([out.obj.reshape(3, -1), out.back[:, None]], axis=1)
        assert np.array_equal(out.flat, want)
        out.obj[0, 0, 0] += 1.0  # assembled at every read, never stale
        assert out.flat[0, 0] == want[0, 0] + 1.0

    def test_gradient_is_flat(self):
        res = joint_classification_loss(_joint_cls_out(4, 2), [Target(0), Target(1, 0.3)] * 2)
        assert res.grad.flat.shape == (4, 2 * 6 + 1)
        assert np.shares_memory(res.grad.obj, res.grad.flat)
        # every row of a softmax gradient sums to zero
        np.testing.assert_allclose(res.grad.flat.sum(axis=1), 0.0, atol=1e-12)

    def test_empty_batch(self):
        res = joint_classification_loss(_joint_cls_out(0, 2), [])
        assert res.value == 0.0
        assert res.grad.flat.shape == (0, 2 * 6 + 1)


def _joint_reg_out(n, n_classes, dim=2):
    rng = np.random.default_rng(n)
    return JointRegOutputs(
        rng.normal(size=(n, n_classes + 1)), rng.normal(size=(n, n_classes, dim))
    )


def _joint_cls_out(n, n_classes, n_bins=6):
    rng = np.random.default_rng(n)
    return JointClsOutputs(rng.normal(size=(n, n_classes, n_bins)), rng.normal(size=n))


# Each loss with outputs for n samples over 2 classes.
LOSSES = {
    "regression": (
        lambda o, t: regression_loss(o, t, dim=2),
        lambda n: np.random.default_rng(n).normal(size=(n, 2, 2)),
    ),
    "classification": (
        classification_loss,
        lambda n: np.random.default_rng(n).normal(size=(n, 2, 6)),
    ),
    "geometric": (
        lambda o, t: geometric_classification_loss(o, t, sigma=0.7),
        lambda n: np.random.default_rng(n).normal(size=(n, 2, 6)),
    ),
    "joint_regression": (
        lambda o, t: joint_regression_loss(o, t, lam=0.5, dim=2),
        lambda n: _joint_reg_out(n, 2),
    ),
    "joint_classification": (
        joint_classification_loss,
        lambda n: _joint_cls_out(n, 2),
    ),
}
POSE_ONLY = {
    "regression": BackgroundInRegression,
    "classification": BackgroundInPoseLoss,
    "geometric": BackgroundInPoseLoss,
}


def _grad_arrays(grad):
    if isinstance(grad, JointRegOutputs):
        return [grad.det, grad.pose]
    if isinstance(grad, JointClsOutputs):
        return [grad.obj, grad.back]
    return [grad]


class TestLabelErrorsInOrder:
    """A loss reports the first offending sample in index order, with the
    same exception and message for a Target list and for Labels."""

    @staticmethod
    def _message(kind, targets):
        fn, outputs = LOSSES[kind]
        out = outputs(len(targets))
        errors = []
        for batch in (targets, as_labels(targets)):
            with pytest.raises(
                (ClassOutOfRange, BackgroundInRegression, BackgroundInPoseLoss)
            ) as e:
                fn(out, batch)
            errors.append((type(e.value), str(e.value)))
        assert errors[0] == errors[1]
        return errors[0]

    @pytest.mark.parametrize("kind", list(LOSSES))
    def test_class_out_of_range_before_background(self, kind):
        got = self._message(kind, [Target(3, 0.1), Target(0), Target(1, 0.2)])
        assert got == (ClassOutOfRange, "sample 0 has class 3 but outputs cover 1..2")

    @pytest.mark.parametrize("kind", list(POSE_ONLY))
    def test_background_before_class_out_of_range(self, kind):
        got = self._message(kind, [Target(1, 0.1), Target(0), Target(5, 0.2)])
        assert got == (POSE_ONLY[kind], "sample 1 is background")

    @pytest.mark.parametrize("kind", ["joint_regression", "joint_classification"])
    def test_joint_losses_skip_background(self, kind):
        targets = [Target(0), Target(2, 0.1), Target(0), Target(4, 0.2), Target(9, 1.0)]
        got = self._message(kind, targets)
        assert got == (ClassOutOfRange, "sample 3 has class 4 but outputs cover 1..2")


@pytest.mark.parametrize("kind", list(LOSSES))
def test_labels_and_target_list_agree_bitwise(kind):
    fn, outputs = LOSSES[kind]
    rng = np.random.default_rng(11)
    targets = _fg_targets(rng, 9, 2)
    if kind not in POSE_ONLY:
        targets = [Target(0) if i % 3 == 0 else t for i, t in enumerate(targets)]
    out = outputs(len(targets))
    a, b = fn(out, targets), fn(out, as_labels(targets))
    assert a.value == b.value
    for ga, gb in zip(_grad_arrays(a.grad), _grad_arrays(b.grad)):
        assert np.array_equal(ga, gb)


class TestRegressionLoss:
    def test_perfect_prediction(self):
        out = np.zeros((1, 2, 2))
        out[0, 0] = [1.0, 0.0]
        res = regression_loss(out, [Target(1, 0.0)], dim=2)
        assert res.value == 0.0
        assert not res.grad.any()

    def test_hand_value(self):
        # row [0, 0] vs encode(0) = [1, 0]: H(-1) + H(0) = 0.5
        out = np.zeros((1, 1, 2))
        res = regression_loss(out, [Target(1, 0.0)], dim=2)
        assert res.value == pytest.approx(0.5, abs=1e-15)

    def test_finite_differences(self):
        rng = np.random.default_rng(10)
        targets = _fg_targets(rng, 8, 3)
        out = rng.normal(0, 1.5, size=(8, 3, 3))
        res = regression_loss(out, targets, dim=3)
        fd = _fd_grad(lambda o: regression_loss(o, targets, dim=3).value, out.copy())
        assert _max_rel_err(res.grad, fd) < 1e-6

    def test_absent_class_rows_untouched(self):
        rng = np.random.default_rng(11)
        targets = [Target(1, float(t)) for t in rng.uniform(0, 6, size=4)]
        out = rng.normal(size=(4, 3, 2))
        base = regression_loss(out, targets, dim=2)
        bumped = out.copy()
        bumped[:, 1:] += rng.normal(size=(4, 2, 2))
        res = regression_loss(bumped, targets, dim=2)
        assert res.value == base.value
        np.testing.assert_array_equal(res.grad[:, 0], base.grad[:, 0])
        assert not res.grad[:, 1:].any()

    def test_background_rejected(self):
        out = np.zeros((1, 2, 2))
        with pytest.raises(BackgroundInRegression):
            regression_loss(out, [Target(0)], dim=2)

    def test_layout_mismatch(self):
        with pytest.raises(LayoutError):
            regression_loss(np.zeros((1, 2, 3)), [Target(1, 0.0)], dim=2)
        with pytest.raises(LayoutError):
            regression_loss(np.zeros((2, 2, 2)), [Target(1, 0.0)], dim=2)

    def test_class_out_of_range(self):
        with pytest.raises(ClassOutOfRange):
            regression_loss(np.zeros((1, 2, 2)), [Target(3, 0.0)], dim=2)


class TestClassificationLoss:
    def test_uniform_logits(self):
        out = np.zeros((1, 1, 24))
        res = classification_loss(out, [Target(1, 0.0)])
        assert res.value == pytest.approx(math.log(24), abs=1e-12)

    def test_uniform_logits_many_sizes(self):
        for n_bins in (4, 24, 360):
            out = np.zeros((1, 2, n_bins))
            res = classification_loss(out, [Target(2, 1.0)])
            assert res.value == pytest.approx(math.log(n_bins), abs=1e-12)

    def test_saturated_logit(self):
        # exact value is log1p((n_bins - 1) * e^-30); below 1e-12 only for
        # small bin counts, so pin the closed form at both sizes
        for n_bins in (8, 24):
            out = np.zeros((1, 1, n_bins))
            out[0, 0, 0] = 30.0
            res = classification_loss(out, [Target(1, 0.0)])
            want = math.log1p((n_bins - 1) * math.exp(-30.0))
            assert res.value == pytest.approx(want, abs=1e-15)
        assert math.log1p(7 * math.exp(-30.0)) < 1e-12

    def test_finite_differences(self):
        rng = np.random.default_rng(12)
        targets = _fg_targets(rng, 16, 2)
        out = rng.normal(0, 2, size=(16, 2, 8))
        res = classification_loss(out, targets)
        fd = _fd_grad(lambda o: classification_loss(o, targets).value, out.copy())
        assert _max_rel_err(res.grad, fd) < 1e-6

    def test_absent_class_rows_untouched(self):
        rng = np.random.default_rng(13)
        targets = [Target(2, float(t)) for t in rng.uniform(0, 6, size=5)]
        out = rng.normal(size=(5, 3, 8))
        base = classification_loss(out, targets)
        bumped = out.copy()
        bumped[:, 0] += 3.0
        bumped[:, 2] -= 1.0
        res = classification_loss(bumped, targets)
        assert res.value == pytest.approx(base.value, abs=1e-12)
        np.testing.assert_allclose(res.grad[:, 1], base.grad[:, 1], atol=1e-15)
        assert not res.grad[:, 0].any() and not res.grad[:, 2].any()

    def test_shift_invariance(self):
        rng = np.random.default_rng(14)
        targets = _fg_targets(rng, 6, 2)
        out = rng.normal(size=(6, 2, 12))
        base = classification_loss(out, targets).value
        shifted = classification_loss(out + 37.5, targets).value
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_background_rejected(self):
        with pytest.raises(BackgroundInPoseLoss):
            classification_loss(np.zeros((1, 1, 4)), [Target(0)])


class TestGeometricLoss:
    def test_uniform_closed_form(self):
        # weights at distances (0, 1, 2, 1) with sigma=3, each bin
        # contributing ln 4 under uniform logits
        out = np.zeros((1, 1, 4))
        res = geometric_classification_loss(out, [Target(1, 0.0)], sigma=3.0)
        want = math.log(4) * (1 + 2 * math.exp(-1 / 3) + math.exp(-2 / 3))
        assert res.value == pytest.approx(want, abs=1e-12)
        assert res.value == pytest.approx(4.0848, abs=5e-4)

    def test_collapses_to_cross_entropy(self):
        rng = np.random.default_rng(15)
        targets = _fg_targets(rng, 8, 2)
        out = rng.normal(0, 2, size=(8, 2, 24))
        geo = geometric_classification_loss(out, targets, sigma=1e-6)
        ce = classification_loss(out, targets)
        assert geo.value == pytest.approx(ce.value, abs=1e-9)

    def test_finite_differences(self):
        rng = np.random.default_rng(16)
        targets = _fg_targets(rng, 8, 2)
        out = rng.normal(0, 2, size=(8, 2, 12))
        res = geometric_classification_loss(out, targets, sigma=1.0)
        fd = _fd_grad(
            lambda o: geometric_classification_loss(o, targets, sigma=1.0).value,
            out.copy(),
        )
        assert _max_rel_err(res.grad, fd) < 1e-6

    def test_sigma_monotone(self):
        out = np.zeros((1, 1, 24))
        targets = [Target(1, 0.0)]
        values = [
            geometric_classification_loss(out, targets, sigma=s).value
            for s in (0.1, 0.5, 1.0, 3.0, 10.0)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_bad_sigma(self):
        with pytest.raises(InvalidParameter):
            geometric_classification_loss(np.zeros((1, 1, 4)), [Target(1, 0.0)], sigma=0.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(17)
        targets = _fg_targets(rng, 4, 1)
        out = rng.normal(size=(4, 1, 8))
        base = geometric_classification_loss(out, targets).value
        shifted = geometric_classification_loss(out - 11.0, targets).value
        assert shifted == pytest.approx(base, abs=1e-12)


class TestJointRegressionLoss:
    def test_background_only(self):
        rng = np.random.default_rng(18)
        out = JointRegOutputs(det=rng.normal(size=(4, 4)), pose=rng.normal(size=(4, 3, 2)))
        targets = [Target(0)] * 4
        res = joint_regression_loss(out, targets, lam=1.0)
        det_only = -float(np.sum(log_softmax(out.det, axis=1)[:, 0]))
        assert res.value == pytest.approx(det_only, abs=1e-12)
        assert not res.grad.pose.any()

    def test_lambda_zero_is_detection_only(self):
        rng = np.random.default_rng(19)
        out = JointRegOutputs(det=rng.normal(size=(5, 3)), pose=rng.normal(size=(5, 2, 3)))
        targets = [Target(0), Target(1, 0.3), Target(2, 2.0), Target(0), Target(1, 4.0)]
        res = joint_regression_loss(out, targets, lam=0.0)
        cls_ids = np.array([t.class_id for t in targets])
        det_only = -float(
            np.sum(log_softmax(out.det, axis=1)[np.arange(5), cls_ids])
        )
        assert res.value == pytest.approx(det_only, abs=1e-12)
        assert not res.grad.pose.any()

    def test_finite_differences_both_heads(self):
        rng = np.random.default_rng(20)
        targets = [Target(0), Target(1, 0.5), Target(3, 2.5), Target(2, 5.0), Target(0), Target(3, 1.1)]
        det = rng.normal(size=(6, 4))
        pose = rng.normal(size=(6, 3, 2))
        res = joint_regression_loss(JointRegOutputs(det, pose), targets, lam=1.0)

        def value(flat):
            d = flat[: det.size].reshape(det.shape)
            p = flat[det.size :].reshape(pose.shape)
            return joint_regression_loss(JointRegOutputs(d, p), targets, lam=1.0).value

        flat = np.concatenate([det.reshape(-1), pose.reshape(-1)])
        fd = _fd_grad(value, flat.copy())
        analytic = np.concatenate([res.grad.det.reshape(-1), res.grad.pose.reshape(-1)])
        assert _max_rel_err(analytic, fd) < 1e-6

    def test_layout_mismatch(self):
        with pytest.raises(LayoutError):
            joint_regression_loss(
                JointRegOutputs(det=np.zeros((1, 3)), pose=np.zeros((1, 3, 2))),
                [Target(0)],
            )

    def test_negative_lambda(self):
        out = JointRegOutputs(det=np.zeros((1, 2)), pose=np.zeros((1, 1, 2)))
        with pytest.raises(InvalidParameter):
            joint_regression_loss(out, [Target(0)], lam=-0.5)


class TestJointClassificationLoss:
    def test_uniform_background(self):
        out = JointClsOutputs(obj=np.zeros((1, 2, 4)), back=np.zeros(1))
        res = joint_classification_loss(out, [Target(0)])
        assert res.value == pytest.approx(math.log(9), abs=1e-12)

    def test_uniform_foreground(self):
        out = JointClsOutputs(obj=np.zeros((1, 2, 4)), back=np.zeros(1))
        res = joint_classification_loss(out, [Target(1, 0.0)])
        assert res.value == pytest.approx(math.log(9), abs=1e-12)

    def test_finite_differences(self):
        rng = np.random.default_rng(21)
        targets = [Target(0), Target(1, 0.7), Target(2, 3.3), Target(0), Target(2, 5.9)]
        obj = rng.normal(size=(5, 2, 6))
        back = rng.normal(size=5)
        res = joint_classification_loss(JointClsOutputs(obj, back), targets)

        def value(flat):
            o = flat[: obj.size].reshape(obj.shape)
            b = flat[obj.size :]
            return joint_classification_loss(JointClsOutputs(o, b), targets).value

        flat = np.concatenate([obj.reshape(-1), back])
        fd = _fd_grad(value, flat.copy())
        analytic = np.concatenate([res.grad.obj.reshape(-1), res.grad.back])
        assert _max_rel_err(analytic, fd) < 1e-6

    def test_target_slots(self):
        # one sample per (class, bin) slot and one background sample: under
        # uniform logits the gradient is p - 1 at the target slot, p elsewhere
        n_classes, n_bins = 3, 5
        targets = [
            Target(c, bin_center(v, n_bins))
            for c in range(1, n_classes + 1)
            for v in range(1, n_bins + 1)
        ] + [Target(0)]
        n = len(targets)
        out = JointClsOutputs(obj=np.zeros((n, n_classes, n_bins)), back=np.zeros(n))
        res = joint_classification_loss(out, targets)
        flat = np.concatenate([res.grad.obj.reshape(n, -1), res.grad.back[:, None]], axis=1)
        want = np.full((n, n), 1.0 / n) - np.eye(n)
        np.testing.assert_allclose(flat, want, atol=1e-15)

    def test_global_coupling(self):
        # the shared normalizer gives every slot a nonzero gradient
        rng = np.random.default_rng(22)
        out = JointClsOutputs(obj=rng.normal(size=(3, 2, 4)), back=rng.normal(size=3))
        targets = [Target(0), Target(1, 1.0), Target(2, 4.0)]
        res = joint_classification_loss(out, targets)
        assert np.all(np.abs(res.grad.obj) > 0)
        assert np.all(np.abs(res.grad.back) > 0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(23)
        obj = rng.normal(size=(4, 2, 6))
        back = rng.normal(size=4)
        targets = [Target(0), Target(1, 0.4), Target(2, 2.2), Target(1, 5.5)]
        base = joint_classification_loss(JointClsOutputs(obj, back), targets).value
        shifted = joint_classification_loss(
            JointClsOutputs(obj + 19.0, back + 19.0), targets
        ).value
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_layout_mismatch(self):
        with pytest.raises(LayoutError):
            joint_classification_loss(
                JointClsOutputs(obj=np.zeros((2, 2, 4)), back=np.zeros(3)),
                [Target(0), Target(0)],
            )


class TestDetectionScore:
    def test_uniform_small(self):
        obj = np.zeros((2, 4))
        for c in (1, 2):
            assert joint_detection_score(obj, 0.0, c) == pytest.approx(4 / 9, abs=1e-12)

    def test_uniform_twelve_class_scale(self):
        obj = np.zeros((12, 24))
        assert joint_detection_score(obj, 0.0, 5) == pytest.approx(24 / 289, abs=1e-12)

    def test_saturated_background(self):
        obj = np.zeros((2, 4))
        for c in (1, 2):
            assert joint_detection_score(obj, 50.0, c) < 1e-18

    def test_scores_normalize(self):
        rng = np.random.default_rng(24)
        obj = rng.normal(0, 3, size=(6, 3, 8))
        back = rng.normal(0, 3, size=6)
        scores = joint_detection_scores(JointClsOutputs(obj, back))
        # independent softmax over the flattened slots
        flat = np.concatenate([obj.reshape(6, -1), back[:, None]], axis=1)
        probs = np.exp(log_softmax(flat, axis=1))
        p_back = probs[:, -1]
        np.testing.assert_allclose(scores.sum(axis=1) + p_back, 1.0, atol=1e-12)
        grouped = probs[:, :-1].reshape(6, 3, 8).sum(axis=2)
        np.testing.assert_allclose(scores, grouped, atol=1e-12)

    def test_shift_leaves_ranking(self):
        rng = np.random.default_rng(25)
        obj = rng.normal(size=(3, 8))
        ranks = [joint_detection_score(obj, 0.2, c) for c in (1, 2, 3)]
        shifted = [joint_detection_score(obj + 400.0, 400.2, c) for c in (1, 2, 3)]
        assert np.argmax(ranks) == np.argmax(shifted)
        np.testing.assert_allclose(ranks, shifted, atol=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ClassOutOfRange):
            joint_detection_score(np.zeros((2, 4)), 0.0, 3)


class TestNonNegativity:
    def test_all_losses_nonnegative(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            fg = _fg_targets(rng, 6, 2)
            mixed = [Target(0) if rng.random() < 0.4 else t for t in fg]
            out3 = rng.normal(size=(6, 2, 12))
            assert classification_loss(out3, fg).value >= 0
            assert geometric_classification_loss(out3, fg, sigma=2.0).value >= 0
            assert regression_loss(rng.normal(size=(6, 2, 2)), fg, dim=2).value >= 0
            jr = JointRegOutputs(rng.normal(size=(6, 3)), rng.normal(size=(6, 2, 3)))
            assert joint_regression_loss(jr, mixed).value >= 0
            jc = JointClsOutputs(rng.normal(size=(6, 2, 5)), rng.normal(size=6))
            assert joint_classification_loss(jc, mixed).value >= 0


def test_bin_center_targets_round_trip():
    # targets built from bin centers land in those bins inside the losses
    out = np.zeros((24, 1, 24))
    targets = [Target(1, bin_center(v, 24)) for v in range(1, 25)]
    res = classification_loss(out, targets)
    assert res.value == pytest.approx(24 * math.log(24), abs=1e-9)
    # gradient at the true slots is p - 1, elsewhere p
    for i, v in enumerate(range(1, 25)):
        assert res.grad[i, 0, v - 1] == pytest.approx(1 / 24 - 1, abs=1e-12)
