"""Gradient-checking harness tests.

The harness itself gets a known-good and a known-bad hand case first; the
seeded suites then run as they do under the CLI, plus corrupted negative
controls that must fail (guarding against a vacuously passing checker).
Each suite runs once per session and seed (``gradient_suites`` in
conftest), shared with the acceptance and golden tests.
"""

import numpy as np
import pytest

from viewbench import gradcheck
from viewbench.angles import TWO_PI
from viewbench.gradcheck import EPS, LOSS_TOL, NET_TOL, check_gradient, check_loss
from viewbench.losses import (
    JointClsOutputs,
    JointRegOutputs,
    LossResult,
    Target,
    as_labels,
    classification_loss,
    geometric_classification_loss,
    joint_classification_loss,
    joint_regression_loss,
    regression_loss,
)


class TestHarness:
    def test_accepts_correct_gradient(self):
        x0 = np.array([1.0, -2.0, 0.5])
        res = check_gradient(lambda x: float(np.sum(x * x)), x0, 2 * x0)
        assert res.passed
        assert res.max_rel_err < 1e-9

    def test_rejects_wrong_gradient(self):
        x0 = np.array([1.0, -2.0, 0.5])
        res = check_gradient(lambda x: float(np.sum(x * x)), x0, 2 * x0 + 0.01)
        assert not res.passed

    def test_point_moved_in_place_and_put_back(self):
        x0 = np.array([1.0, -2.0, -0.0, 0.5])
        before = x0.tobytes()
        seen = []

        def f(_):  # reads the point through the closure, not its argument
            seen.append(x0.copy())
            return float(np.sum(x0 * x0))

        assert check_gradient(f, x0, 2 * x0).passed
        assert x0.tobytes() == before
        assert len(seen) == 2 * x0.size
        for j, point in enumerate(seen):
            moved = np.frombuffer(before).copy()
            moved[j // 2] += EPS if j % 2 == 0 else -EPS
            assert point.tobytes() == moved.tobytes()

    def test_subsampling_still_covers_top_slots(self):
        # 1000 slots capped at 64: the corrupted largest slot must be seen
        x0 = np.linspace(0.1, 1.0, 1000)
        res = check_gradient(
            lambda x: float(np.sum(x * x)), x0, 2 * x0, max_slots=64, corrupt=True
        )
        assert res.n_slots <= 64
        assert not res.passed

    @pytest.mark.parametrize("f, analytic", [
        (lambda x: float("nan"), np.ones(3)),
        (lambda x: float(np.sum(x * x)), np.full(3, np.nan)),
    ], ids=["nan-value", "nan-gradient"])
    def test_nan_error_fails(self, f, analytic):
        res = check_gradient(f, np.ones(3), analytic)
        assert np.isnan(res.max_rel_err) and not res.passed

    def test_nan_loss_fails(self):
        outputs = np.zeros((2, 2, 8))
        outputs[0, 0, 0] = np.nan
        res = check_loss(classification_loss, outputs, [Target(1, 0.5), Target(2, 1.0)])
        assert np.isnan(res.max_rel_err) and not res.passed


@pytest.fixture(scope="module")
def loss_results(gradient_suites):
    return gradient_suites.loss(0)


@pytest.fixture(scope="module")
def net_results(gradient_suites):
    return gradient_suites.net(0)


class TestLossSuite:
    def test_all_pass(self, loss_results):
        failed = [r for r in loss_results if not r.passed]
        assert not failed, [f"{r.name}: {r.max_rel_err:.2e}" for r in failed]
        assert max(r.max_rel_err for r in loss_results) < LOSS_TOL

    def test_case_counts(self, loss_results):
        kinds = {}
        for r in loss_results:
            kinds[r.name.split("[")[0]] = kinds.get(r.name.split("[")[0], 0) + 1
        assert set(kinds) == {
            "regression",
            "classification",
            "geometric",
            "joint_regression",
            "joint_classification",
        }
        assert all(count >= 20 for count in kinds.values()), kinds

    def test_corrupted_suite_fails(self, gradient_suites):
        results = gradient_suites.loss(0, corrupt=True)
        assert all(not r.passed for r in results)

    def test_other_seed_same_verdict(self, gradient_suites):
        assert all(r.passed for r in gradient_suites.loss(7))


class TestNetSuite:
    def test_all_pass(self, net_results):
        failed = [r for r in net_results if not r.passed]
        assert not failed, [f"{r.name}: {r.max_rel_err:.2e}" for r in failed]
        assert max(r.max_rel_err for r in net_results) < NET_TOL

    def test_covers_every_head(self, net_results):
        names = [r.name for r in net_results]
        for head in ("reg", "cls", "joint_reg", "joint_cls"):
            assert any(f"[{head}," in n for n in names), names

    def test_corrupted_suite_fails(self, gradient_suites):
        results = gradient_suites.net(0, corrupt=True)
        assert all(not r.passed for r in results)

    def test_other_seed_same_verdict(self, gradient_suites):
        assert all(r.passed for r in gradient_suites.net(5))


# ---------------------------------------------------------------- row path
#
# ``check_loss`` evaluates a loss once per block of perturbed sample rows and
# rebuilds each copy's value from the base terms.  The oracle is the per-slot
# evaluation it replaced: one loss call per perturbed point, on views of one
# perturbed vector (the packing the harness used before), with the same
# labels.  Every value must match it bit for bit (``float.hex``).


def _oracle_unpack(outputs):
    """The packed vector's rebuilder as the per-slot evaluator had it."""
    if isinstance(outputs, JointRegOutputs):
        det, pose = outputs.det, outputs.pose
        split = det.size
        return lambda v: JointRegOutputs(
            v[:split].reshape(det.shape), v[split:].reshape(pose.shape)
        )
    if isinstance(outputs, JointClsOutputs):
        obj = outputs.obj
        b, n_c, n_v = obj.shape
        rows = np.concatenate(
            [np.arange(obj.size).reshape(b, -1), obj.size + np.arange(b)[:, None]], axis=1
        )
        return lambda v: JointClsOutputs.from_flat(v.take(rows), n_c, n_v)
    shape = np.shape(outputs)
    return lambda v: v.reshape(shape)


def _checked_slots(loss_fn, outputs, labels, seed, corrupt):
    vec = gradcheck._layout(outputs)[0]
    grad = gradcheck._layout(loss_fn(outputs, labels).grad)[0]
    return gradcheck._slots_to_check(grad, vec.size, gradcheck.MAX_SLOTS, seed, corrupt)[1]


def _oracle_values(loss_fn, outputs, labels, slots):
    """f at +eps and -eps of each slot, (2, n_slots), one loss call per point."""
    vec = gradcheck._layout(outputs)[0]
    unpack = _oracle_unpack(outputs)
    x = vec.copy()
    values = np.empty((2, slots.size))
    for j, i in enumerate(slots):
        for side, sign in enumerate((1.0, -1.0)):
            x[i] = vec[i] + sign * EPS
            values[side, j] = loss_fn(unpack(x), labels).value
        x[i] = vec[i]
    return values


def _row_values(loss_fn, outputs, labels, slots):
    vec, rows, build = gradcheck._layout(outputs)
    terms = loss_fn(outputs, labels).terms
    return gradcheck._stacked_values(loss_fn, terms, labels, vec, rows, build, slots, EPS)


def _row_and_oracle_values(loss_fn, outputs, targets, seed=0):
    """(row-path values, per-slot values) of the checked slots."""
    labels = as_labels(targets)
    slots = _checked_slots(loss_fn, outputs, labels, seed, False)
    return (
        _row_values(loss_fn, outputs, labels, slots),
        _oracle_values(loss_fn, outputs, labels, slots),
    )


def _assert_same_bits(got, want, name):
    assert got.shape == want.shape, name
    bad = [(j, g.hex(), w.hex()) for j, (g, w) in enumerate(zip(got.ravel().tolist(),
                                                                 want.ravel().tolist()))
           if g.hex() != w.hex()]
    assert not bad, (name, bad[:5])
    # and so every central difference
    fd_got = ((got[0] - got[1]) / (2.0 * EPS)).tolist()
    fd_want = ((want[0] - want[1]) / (2.0 * EPS)).tolist()
    assert [v.hex() for v in fd_got] == [v.hex() for v in fd_want], name


def _suite_cases(monkeypatch, seed, corrupt):
    """The (loss_fn, outputs, targets, keywords) of every check_loss call
    of ``loss_gradient_suite(seed, corrupt)``."""
    cases = []
    check_loss = gradcheck.check_loss

    def recording(loss_fn, outputs, targets, **kw):
        cases.append((loss_fn, outputs, targets, kw))
        return check_loss(loss_fn, outputs, targets, **kw)

    monkeypatch.setattr(gradcheck, "check_loss", recording)
    gradcheck.loss_gradient_suite(seed, corrupt=corrupt)
    monkeypatch.undo()
    return cases


class TestRowPath:
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_suite_values_equal_per_slot(self, seed, monkeypatch):
        # the suite with and without ``corrupt`` checks the same points; the
        # slots each picks are compared, the oracle runs once per slot
        cases = _suite_cases(monkeypatch, seed, False)
        corrupted = _suite_cases(monkeypatch, seed, True)
        assert len(cases) == len(corrupted) == 144
        for (loss_fn, outputs, targets, kw), (_, _, _, kw_c) in zip(cases, corrupted):
            assert (kw["name"], kw["seed"], kw_c["corrupt"]) == (kw_c["name"], kw_c["seed"], True)
            labels = as_labels(targets)
            picked = [_checked_slots(loss_fn, outputs, labels, kw["seed"], c) for c in (0, 1)]
            slots = np.union1d(*picked)
            want = _oracle_values(loss_fn, outputs, labels, slots)
            for some in picked:
                got = _row_values(loss_fn, outputs, labels, some)
                _assert_same_bits(got, want[:, np.searchsorted(slots, some)], kw["name"])

    def test_one_slot_blocks(self, monkeypatch):
        # every block a single slot: joint regression blocks of background
        # rows alone have no Huber part while their base has one
        cases = _suite_cases(monkeypatch, 3, False)
        monkeypatch.setattr(gradcheck, "BLOCK_DOUBLES", 1)
        for loss_fn, outputs, targets, kw in cases[::5]:
            got, want = _row_and_oracle_values(loss_fn, outputs, targets, kw["seed"])
            _assert_same_bits(got, want, kw["name"])

    @staticmethod
    def _edge_cases():
        rng = np.random.default_rng(11)
        fg = [Target(2, 1.0)]
        bg = [Target(0)] * 4
        mixed = [Target(0), Target(1, 0.25), Target(0), Target(2, 5.5)]
        wide = [Target(int(c), float(a)) for c, a in
                zip(rng.integers(1, 6, 8), rng.uniform(0.0, TWO_PI, 8))]
        return [
            ("B=1 regression", lambda o, t: regression_loss(o, t, dim=3),
             rng.normal(0, 2, (1, 2, 3)), fg),
            ("B=1 classification", classification_loss, rng.normal(0, 2, (1, 2, 8)), fg),
            ("B=1 joint_cls", joint_classification_loss,
             JointClsOutputs(rng.normal(0, 2, (1, 2, 8)), rng.normal(0, 2, 1)), fg),
            ("B=1 joint_reg", joint_regression_loss,
             JointRegOutputs(rng.normal(0, 2, (1, 3)), rng.normal(0, 2, (1, 2, 2))), fg),
            ("background joint_reg", joint_regression_loss,
             JointRegOutputs(rng.normal(0, 2, (4, 3)), rng.normal(0, 2, (4, 2, 3))), bg),
            ("background joint_cls", joint_classification_loss,
             JointClsOutputs(rng.normal(0, 2, (4, 2, 24)), rng.normal(0, 2, 4)), bg),
            ("lam=0 joint_reg", lambda o, t: joint_regression_loss(o, t, lam=0.0),
             JointRegOutputs(rng.normal(0, 2, (4, 3)), rng.normal(0, 2, (4, 2, 2))), mixed),
            ("lam=0.5 joint_reg", lambda o, t: joint_regression_loss(o, t, lam=0.5),
             JointRegOutputs(rng.normal(0, 2, (4, 3)), rng.normal(0, 2, (4, 2, 3))), mixed),
            ("360x5 classification", classification_loss, rng.normal(0, 2, (8, 5, 360)), wide),
            ("360x5 geometric", geometric_classification_loss,
             rng.normal(0, 2, (8, 5, 360)), wide),
            ("360x5 joint_cls", joint_classification_loss,
             JointClsOutputs(rng.normal(0, 2, (8, 5, 360)), rng.normal(0, 2, 8)),
             wide[:5] + [Target(0)] * 3),
        ]

    def test_edge_cases(self):
        for name, loss_fn, outputs, targets in self._edge_cases():
            got, want = _row_and_oracle_values(loss_fn, outputs, targets)
            _assert_same_bits(got, want, name)
            assert check_loss(loss_fn, outputs, targets).passed, name

    def test_wide_case_runs_in_several_blocks(self, monkeypatch):
        _, loss_fn, outputs, targets = self._edge_cases()[-1]
        calls = []

        def counted(o, t):
            calls.append(len(t))
            return loss_fn(o, t)

        res = check_loss(counted, outputs, targets)
        assert res.n_slots > 200
        # the base point, then blocks of at most BLOCK_DOUBLES doubles of rows
        width = 5 * 360 + 1
        assert len(calls) > 2 and calls[0] == 8
        assert all(n * width <= gradcheck.BLOCK_DOUBLES for n in calls[1:])
        assert sum(calls[1:]) == 2 * res.n_slots

    def test_eager_result_takes_the_per_slot_path(self):
        for name, loss_fn, outputs, targets in self._edge_cases():
            calls = []

            def eager(o, t):
                calls.append(len(t))
                res = loss_fn(o, t)
                return LossResult(res.value, res.grad)

            got = check_loss(eager, outputs, targets, name=name)
            want = check_loss(loss_fn, outputs, targets, name=name)
            assert (got.name, got.n_slots) == (want.name, want.n_slots)
            assert got.max_rel_err.hex() == want.max_rel_err.hex(), name
            assert len(calls) == 1 + 2 * got.n_slots  # one call per perturbed point
            assert set(calls) == {len(targets)}

    @pytest.mark.parametrize("loss_fn, outputs", [
        (classification_loss, np.zeros((0, 2, 8))),
        (joint_regression_loss, JointRegOutputs(np.zeros((0, 3)), np.zeros((0, 2, 3)))),
        (joint_classification_loss, JointClsOutputs(np.zeros((0, 2, 8)), np.zeros(0))),
    ])
    def test_empty_batch_checks_no_slot(self, loss_fn, outputs):
        res = check_loss(loss_fn, outputs, [])
        assert (res.n_slots, res.max_rel_err) == (0, 0.0)
