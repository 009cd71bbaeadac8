"""Finite-difference verification of the analytic gradients.

Every loss returns its own gradient; this module checks those gradients
(and the end-to-end parameter gradients of the network) against central
differences, f'(x) ~ (f(x+e) - f(x-e)) / 2e with e = 1e-5.  Agreement is
scored per slot as |a - fd| / max(1, |a|, |fd|), so tiny slots are judged
absolutely and large ones relatively.

The central differences read only loss values.  A loss computes its
gradient on first read (see ``losses.LossResult``), so the two evaluations
per checked slot never compute one; the analytic gradient is read once per
check.

A loss check does not call the loss once per perturbed point.  Every loss
is row-wise up to its final sum (see ``losses``), so moving one slot
changes only the terms of the sample that owns it.  ``check_loss``
evaluates the base point once, calls the loss once per block of perturbed
sample rows (each slot's row at +e and at -e, with its own label), and
rebuilds each copy's value: the base terms with that sample's rows put
back from the block, totalled by the loss's own helper
(``losses._total``).  The rebuilt values are the per-slot values bit for
bit.  A term row comes from the same numbers through the same row-wise
operations whichever batch holds it (a softmax reduces along one
contiguous row; elementwise functions do not depend on an element's
position), so the rebuilt term array is the one a per-slot call would
build, and it is totalled as one contiguous run of the same length.  A block holds at most
``BLOCK_DOUBLES`` doubles.  A result without terms (an eager
``LossResult(value, grad)``) and ``check_net`` (every parameter moves
every sample) go through the one per-slot evaluator,
``check_gradient``: one evaluation per perturbed point, each slot moved
in place and put back.  ``check_net``'s point is the parameters' flat
``values`` vector, laid out like the flat gradient ``backward``
returns.  One function scores both evaluators.

Layouts with many slots are subsampled: the largest-magnitude analytic
slots are always checked, the rest drawn by a seeded generator, so runs
are deterministic and still cover the slots that matter.

``corrupt=True`` biases one analytic slot before comparison; the suites
must then fail, which guards the harness against vacuous passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .angles import TWO_PI
from .losses import (
    LOSS_HEADS,
    JointClsOutputs,
    JointRegOutputs,
    Labels,
    LossSpec,
    Target,
    Terms,
    _total,
    as_labels,
    classification_loss,
    geometric_classification_loss,
    joint_classification_loss,
    joint_regression_loss,
    loss_function,
    regression_loss,
)
from . import net as nets

EPS = 1e-5
LOSS_TOL = 1e-5
NET_TOL = 1e-4
MAX_SLOTS = 256
_TOP_SLOTS = 32
# doubles of perturbed sample rows, and of the term copies rebuilt from
# them, per stacked loss call
BLOCK_DOUBLES = 1 << 17


@dataclass(frozen=True)
class GradCheckResult:
    name: str
    n_slots: int
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance


def _pick_slots(analytic: np.ndarray, max_slots: int, rng: np.random.Generator) -> np.ndarray:
    n = analytic.size
    if n <= max_slots:
        return np.arange(n)
    top = np.argsort(np.abs(analytic))[-_TOP_SLOTS:]
    rest = rng.choice(n, size=max_slots - top.size, replace=False)
    return np.unique(np.concatenate([top, rest]))


def _slots_to_check(
    analytic: np.ndarray, n: int, max_slots: int, seed: int, corrupt: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The analytic gradient as compared (``corrupt`` biases one slot) and
    the slots to check."""
    analytic = np.asarray(analytic, dtype=float).ravel().copy()
    if analytic.size != n:
        raise ValueError(f"gradient has {analytic.size} slots, point has {n}")
    if corrupt:
        # bias the largest slot: subsampling always checks the top slots
        analytic[int(np.argmax(np.abs(analytic)))] += 1e-2
    return analytic, _pick_slots(analytic, max_slots, np.random.default_rng(seed))


def _score(analytic: np.ndarray, values: np.ndarray, eps: float) -> float:
    """The worst relative error of the central differences of ``values``
    ((2, n): f at +eps and at -eps in each slot) against ``analytic``.  A
    NaN error (a NaN value or analytic slot) makes the result NaN, which
    fails every tolerance."""
    fd = (values[0] - values[1]) / (2.0 * eps)
    err = np.abs(analytic - fd) / np.fmax(np.fmax(1.0, np.abs(analytic)), np.abs(fd))
    return float(np.max(err, initial=0.0))


def _stacked_values(
    loss_fn: Callable,
    terms: Terms,
    labels: Labels,
    vec: np.ndarray,
    rows: np.ndarray,
    build: Callable,
    slots: np.ndarray,
    eps: float,
) -> np.ndarray:
    """The values of the central differences of :func:`check_gradient`
    ((2, n): the loss at +eps and at -eps in each slot) for a loss whose
    terms at ``vec`` are ``terms``, from one loss call per block of
    perturbed sample rows.

    Copy 2j of a block is slot j's sample row at +eps, copy 2j+1 at -eps,
    each with its own label.  A copy's value is the total of the base
    terms with its sample's term rows replaced by the copy's."""
    b, width = rows.shape
    sample = np.empty(vec.size, dtype=np.intp)
    sample[rows] = np.arange(b)[:, None]
    column = np.empty(vec.size, dtype=np.intp)
    column[rows] = np.arange(width)
    base_rows = vec.take(rows)
    # where each sample's term row sits in each part's T
    positions = []
    for _, t, ids in terms:
        pos = np.arange(b)
        if ids is not None:
            pos[ids] = np.arange(ids.size)
        positions.append(pos)
    per_slot = 2 * (width + sum(t.size for _, t, _ in terms))
    step = max(1, BLOCK_DOUBLES // per_slot)
    values = np.empty((2, slots.size))
    for start in range(0, slots.size, step):
        block = slots[start:start + step]
        k = 2 * block.size
        copy_sample = np.repeat(sample[block], 2)
        stacked = base_rows[copy_sample]
        x = vec[block]
        stacked[np.arange(0, k, 2), column[block]] = x + eps
        stacked[np.arange(1, k, 2), column[block]] = x - eps
        copy_labels = Labels(labels.class_id[copy_sample], labels.azimuth[copy_sample])
        stacked_terms = loss_fn(build(stacked), copy_labels).terms
        copies = []
        for j, (coef, t, _) in enumerate(terms):
            copy = np.repeat(t[None], k, axis=0)
            # a joint regression block without foreground rows has no Huber part
            if j < len(stacked_terms):
                _, t_k, ids_k = stacked_terms[j]
                c = np.arange(k) if ids_k is None else ids_k
                copy[c, positions[j][copy_sample[c]]] = t_k
            copies.append((coef, copy.reshape(k, -1), None))
        values[:, start:start + block.size] = _total(copies, axis=1).reshape(-1, 2).T
    return values


def check_gradient(
    f: Callable[[np.ndarray], float],
    x0: np.ndarray,
    analytic: np.ndarray,
    eps: float = EPS,
    tolerance: float = LOSS_TOL,
    max_slots: int = MAX_SLOTS,
    seed: int = 0,
    name: str = "gradient",
    corrupt: bool = False,
) -> GradCheckResult:
    """Compare an analytic gradient against central differences of f.

    Each checked slot of the flat float point ``x0`` is moved in place to
    +eps and to -eps, with one call of ``f`` on the point at each, and is
    then put back, so the point ends as it started, bit for bit, and an
    ``f`` that reads the point through a closure sees each move."""
    x = np.asarray(x0, dtype=float).ravel()
    analytic, slots = _slots_to_check(analytic, x.size, max_slots, seed, corrupt)
    values = np.empty((2, slots.size))
    for j, i in enumerate(slots):
        xi = x[i]
        x[i] = xi + eps
        values[0, j] = f(x)
        x[i] = xi - eps
        values[1, j] = f(x)
        x[i] = xi
    return GradCheckResult(name, slots.size, _score(analytic[slots], values, eps), tolerance)


def _layout(outputs) -> tuple[np.ndarray, np.ndarray, Callable]:
    """A head-output structure as a vector, the (B, W) index of each
    sample's W slots in that vector, and the function that makes the
    structure from an (M, W) matrix of sample rows."""
    if isinstance(outputs, JointRegOutputs):
        det, pose = outputs.det, outputs.pose
        b, n_classes, dim = pose.shape
        split = det.shape[1]
        rows = np.concatenate(
            [
                np.arange(det.size).reshape(b, split),
                det.size + np.arange(pose.size).reshape(b, n_classes * dim),
            ],
            axis=1,
        )

        def build(mat):
            return JointRegOutputs(
                np.ascontiguousarray(mat[:, :split]),
                np.ascontiguousarray(mat[:, split:]).reshape(-1, n_classes, dim),
            )

        return np.concatenate([det.ravel(), pose.ravel()]), rows, build
    if isinstance(outputs, JointClsOutputs):
        obj, back = outputs.obj, outputs.back
        b, n_classes, n_bins = obj.shape
        # a row's (class, bin) slots, then its background logit: the
        # (B, n_classes * n_bins + 1) rows the loss normalizes
        rows = np.concatenate(
            [np.arange(obj.size).reshape(b, n_classes * n_bins), obj.size + np.arange(b)[:, None]],
            axis=1,
        )

        def build(mat):
            return JointClsOutputs.from_flat(mat, n_classes, n_bins)

        return np.concatenate([obj.ravel(), back.ravel()]), rows, build
    arr = np.asarray(outputs, dtype=float)
    rows = np.arange(arr.size).reshape(arr.shape[0], math.prod(arr.shape[1:]))
    return arr.ravel().copy(), rows, lambda mat: mat.reshape((-1,) + arr.shape[1:])


def check_loss(
    loss_fn: Callable,
    outputs,
    targets: Labels | Sequence[Target],
    tolerance: float = LOSS_TOL,
    name: str = "loss",
    seed: int = 0,
    corrupt: bool = False,
) -> GradCheckResult:
    """Finite-difference check of one loss at one output point."""
    labels = as_labels(targets)  # once, not at every evaluation
    vec, rows, build = _layout(outputs)
    base = loss_fn(outputs, labels)
    grad = _layout(base.grad)[0]
    if base.terms is None:
        return check_gradient(
            lambda v: loss_fn(build(v.take(rows)), labels).value, vec, grad,
            tolerance=tolerance, seed=seed, name=name, corrupt=corrupt,
        )
    analytic, slots = _slots_to_check(grad, vec.size, MAX_SLOTS, seed, corrupt)
    values = _stacked_values(loss_fn, base.terms, labels, vec, rows, build, slots, EPS)
    return GradCheckResult(name, slots.size, _score(analytic[slots], values, EPS), tolerance)


def check_net(
    cfg: nets.NetConfig,
    loss: LossSpec,
    x: np.ndarray,
    targets: Labels | Sequence[Target],
    tolerance: float = NET_TOL,
    name: str = "net",
    seed: int = 0,
    corrupt: bool = False,
) -> GradCheckResult:
    """End-to-end check: d(loss)/d(parameters) through forward/backward,
    against central differences of the parameters, whose flat ``values``
    vector :func:`check_gradient` moves in place."""
    targets = as_labels(targets)
    params = nets.init_params(cfg)
    fn = loss_function(loss, cfg.n_dims)
    out, cache = nets.forward(params, cfg, x, want_cache=True)
    grads = nets.backward(params, cfg, x, fn(out, targets).grad, cache)
    return check_gradient(
        lambda _: fn(nets.forward(params, cfg, x), targets).value, params.values, grads,
        tolerance=tolerance, seed=seed, name=name, corrupt=corrupt,
    )


def _random_targets(
    rng: np.random.Generator, n: int, n_classes: int, with_background: bool
) -> list[Target]:
    targets = []
    for _ in range(n):
        if with_background and rng.random() < 0.3:
            targets.append(Target(0))
        else:
            targets.append(
                Target(int(rng.integers(1, n_classes + 1)), float(rng.uniform(0.0, TWO_PI)))
            )
    return targets


def loss_gradient_suite(seed: int = 0, corrupt: bool = False) -> list[GradCheckResult]:
    """Finite-difference checks for every loss over a grid of layouts.

    Each loss gets two draws per size combination, spanning n_classes in
    {1, 2, 5} and n_bins in {2, 8, 24, 360} (embedding dims 2 and 3 for
    the regression losses), 24 cases per loss.
    """
    rng = np.random.default_rng(seed)
    results = []
    bins_grid = (2, 8, 24, 360)
    dims_grid = (2, 3)

    def normal(*shape):
        return rng.normal(0.0, 2.0, shape)

    def run(tag, n_c, extra, loss_fn, outputs_of, background=False):
        """Two cases of one layout: both batch sizes are drawn first, then
        per case the outputs, the targets and the check's seed."""
        for b in [int(rng.integers(1, 9)) for _ in range(2)]:
            outputs = outputs_of(b)
            targets = _random_targets(rng, b, n_c, with_background=background)
            results.append(
                check_loss(
                    loss_fn, outputs, targets, name=f"{tag}[n_c={n_c},{extra},B={b}]",
                    seed=int(rng.integers(2**31)), corrupt=corrupt,
                )
            )

    for n_c in (1, 2, 5):
        for dim in dims_grid:
            for _ in range(2):
                run("regression", n_c, f"dim={dim}", partial(regression_loss, dim=dim),
                    lambda b: normal(b, n_c, dim))
        for n_v in bins_grid:
            run("classification", n_c, f"n_v={n_v}", classification_loss,
                lambda b: normal(b, n_c, n_v))
            run("geometric", n_c, f"n_v={n_v}", geometric_classification_loss,
                lambda b: normal(b, n_c, n_v))
        for dim in dims_grid:
            for lam in (0.0, 1.0):
                run("joint_regression", n_c, f"dim={dim},lam={lam}",
                    partial(joint_regression_loss, lam=lam),
                    lambda b: JointRegOutputs(normal(b, n_c + 1), normal(b, n_c, dim)),
                    background=True)
        for n_v in bins_grid:
            for _ in range(2):
                run("joint_classification", n_c, f"n_v={n_v}", joint_classification_loss,
                    lambda b: JointClsOutputs(normal(b, n_c, n_v), normal(b)),
                    background=True)
    return results


def net_gradient_suite(seed: int = 0, corrupt: bool = False) -> list[GradCheckResult]:
    """End-to-end checks, one small network per head kind (< 200 params)."""
    rng = np.random.default_rng(seed)
    cases = [
        (LossSpec("regression"), dict(n_dims=2)),
        (LossSpec("regression"), dict(n_dims=3)),
        (LossSpec("classification"), dict(n_bins=5)),
        (LossSpec("geometric"), dict(n_bins=5)),
        (LossSpec("joint_regression"), dict(n_dims=3, split_depth=0)),
        (LossSpec("joint_regression"), dict(n_dims=3, split_depth=1)),
        (LossSpec("joint_regression", lam=0.0), dict(n_dims=2, split_depth=1)),
        (LossSpec("joint_classification"), dict(n_bins=5)),
    ]
    results = []
    for loss, overrides in cases:
        head = LOSS_HEADS[loss.kind]
        cfg = nets.NetConfig(
            input_dim=4,
            trunk_widths=(6,),
            head=head,
            n_classes=2,
            seed=int(rng.integers(2**31)),
            **overrides,
        )
        b = 6
        x = rng.normal(0.0, 1.0, (b, cfg.input_dim))
        joint = head.startswith("joint")
        targets = _random_targets(rng, b, cfg.n_classes, with_background=joint)
        name = f"net[{head},{loss.kind}"
        if "split_depth" in overrides:
            name += f",split={overrides['split_depth']}"
        name += "]"
        results.append(
            check_net(
                cfg, loss, x, targets, name=name,
                seed=int(rng.integers(2**31)), corrupt=corrupt,
            )
        )
    return results
