"""Fixtures shared across test modules."""

import time

import pytest

from viewbench.experiments import median_comparison, symmetry_probe
from viewbench.gradcheck import loss_gradient_suite, net_gradient_suite

# the formulation comparison's seeds (criteria c5 and c6)
COMPARISON_SEEDS = (0, 1, 2, 3, 4)


class GradientSuites:
    """``loss_gradient_suite`` and ``net_gradient_suite`` computed once per
    (suite, seed, corrupt) and served from then on, with the seconds the
    computation took.  ``loss`` and ``net`` take the suites' arguments and
    return a fresh list of the (frozen) results."""

    def __init__(self):
        self._results = {}
        self._seconds = {}

    def _run(self, suite, seed, corrupt):
        key = (suite, seed, corrupt)
        if key not in self._results:
            start = time.perf_counter()
            self._results[key] = tuple(suite(seed, corrupt=corrupt))
            self._seconds[key] = time.perf_counter() - start
        return list(self._results[key])

    def loss(self, seed, corrupt=False):
        return self._run(loss_gradient_suite, seed, corrupt)

    def net(self, seed, corrupt=False):
        return self._run(net_gradient_suite, seed, corrupt)

    def seconds(self, seed, corrupt=False):
        """Seconds the loss and the net suite at ``seed`` took together."""
        self.loss(seed, corrupt)
        self.net(seed, corrupt)
        return sum(self._seconds[(suite, seed, corrupt)]
                   for suite in (loss_gradient_suite, net_gradient_suite))


@pytest.fixture(scope="session")
def gradient_suites():
    return GradientSuites()


@pytest.fixture(scope="session")
def comparison_medians():
    """``median_comparison(COMPARISON_SEEDS)``, computed once per session,
    and the seconds it took."""
    start = time.perf_counter()
    med = median_comparison(COMPARISON_SEEDS)
    return med, time.perf_counter() - start


@pytest.fixture(scope="session")
def symmetry_probe_0():
    """``symmetry_probe(0)``, computed once per session."""
    return symmetry_probe(0)
