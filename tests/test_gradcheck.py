"""Gradient-checking harness tests.

The harness itself gets a known-good and a known-bad hand case first; the
seeded suites then run as they do under the CLI, plus corrupted negative
controls that must fail (guarding against a vacuously passing checker).
The seed-0 suites run once each, in module fixtures their tests share.
"""

import numpy as np
import pytest

from viewbench.gradcheck import (
    LOSS_TOL,
    NET_TOL,
    check_gradient,
    loss_gradient_suite,
    net_gradient_suite,
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

    def test_subsampling_still_covers_top_slots(self):
        # 1000 slots capped at 64: the corrupted largest slot must be seen
        x0 = np.linspace(0.1, 1.0, 1000)
        res = check_gradient(
            lambda x: float(np.sum(x * x)), x0, 2 * x0, max_slots=64, corrupt=True
        )
        assert res.n_slots <= 64
        assert not res.passed


@pytest.fixture(scope="module")
def loss_results():
    return loss_gradient_suite(0)


@pytest.fixture(scope="module")
def net_results():
    return net_gradient_suite(0)


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

    def test_corrupted_suite_fails(self):
        results = loss_gradient_suite(0, corrupt=True)
        assert all(not r.passed for r in results)

    def test_other_seed_same_verdict(self):
        assert all(r.passed for r in loss_gradient_suite(7))


class TestNetSuite:
    def test_all_pass(self, net_results):
        failed = [r for r in net_results if not r.passed]
        assert not failed, [f"{r.name}: {r.max_rel_err:.2e}" for r in failed]
        assert max(r.max_rel_err for r in net_results) < NET_TOL

    def test_covers_every_head(self, net_results):
        names = [r.name for r in net_results]
        for head in ("reg", "cls", "joint_reg", "joint_cls"):
            assert any(f"[{head}," in n for n in names), names

    def test_corrupted_suite_fails(self):
        results = net_gradient_suite(0, corrupt=True)
        assert all(not r.passed for r in results)

    def test_other_seed_same_verdict(self):
        assert all(r.passed for r in net_gradient_suite(5))
