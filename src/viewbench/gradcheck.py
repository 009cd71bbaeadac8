"""Finite-difference verification of the analytic gradients.

Every loss returns its own gradient; this module checks those gradients
(and the end-to-end parameter gradients of the network) against central
differences, f'(x) ~ (f(x+e) - f(x-e)) / 2e with e = 1e-5.  Agreement is
scored per slot as |a - fd| / max(1, |a|, |fd|), so tiny slots are judged
absolutely and large ones relatively.

The central differences read only loss values.  A loss computes its
gradient on first read (see ``losses.LossResult``), so the two evaluations
per checked slot never compute one; the analytic gradient is read once per
check.  Each perturbation is written into one reused copy of the point.

Layouts with many slots are subsampled: the largest-magnitude analytic
slots are always checked, the rest drawn by a seeded generator, so runs
are deterministic and still cover the slots that matter.

``corrupt=True`` biases one analytic slot before comparison; the suites
must then fail, which guards the harness against vacuous passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .angles import TWO_PI
from .losses import (
    JointClsOutputs,
    JointRegOutputs,
    Labels,
    LossSpec,
    Target,
    as_labels,
    classification_loss,
    geometric_classification_loss,
    joint_classification_loss,
    joint_regression_loss,
    regression_loss,
)
from . import net as nets

EPS = 1e-5
LOSS_TOL = 1e-5
NET_TOL = 1e-4
MAX_SLOTS = 256
_TOP_SLOTS = 32


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
    """Compare an analytic gradient against central differences of f."""
    x0 = np.asarray(x0, dtype=float).ravel()
    analytic = np.asarray(analytic, dtype=float).ravel().copy()
    if analytic.size != x0.size:
        raise ValueError(f"gradient has {analytic.size} slots, point has {x0.size}")
    if corrupt:
        # bias the largest slot: subsampling always checks the top slots
        analytic[int(np.argmax(np.abs(analytic)))] += 1e-2
    rng = np.random.default_rng(seed)
    slots = _pick_slots(analytic, max_slots, rng)
    worst = 0.0
    x = x0.copy()
    for i in slots:
        xi = x0[i]
        x[i] = xi + eps
        f_plus = f(x)
        x[i] = xi - eps
        f_minus = f(x)
        x[i] = xi
        fd = (f_plus - f_minus) / (2.0 * eps)
        a = analytic[i]
        err = abs(a - fd) / max(1.0, abs(a), abs(fd))
        worst = max(worst, err)
    return GradCheckResult(name, slots.size, worst, tolerance)


def _pack(outputs):
    """Flatten a head-output structure to a vector plus its rebuilder."""
    if isinstance(outputs, JointRegOutputs):
        det, pose = outputs.det, outputs.pose
        split = det.size

        def unpack(vec):
            return JointRegOutputs(
                vec[:split].reshape(det.shape), vec[split:].reshape(pose.shape)
            )

        return np.concatenate([det.ravel(), pose.ravel()]), unpack
    if isinstance(outputs, JointClsOutputs):
        obj, back = outputs.obj, outputs.back
        b, n_classes, n_bins = obj.shape
        # where each slot of the (B, n_classes * n_bins + 1) rows the loss
        # normalizes sits in the vector: a row's (class, bin) slots, then
        # its background logit
        rows = np.concatenate(
            [np.arange(obj.size).reshape(b, -1), obj.size + np.arange(b)[:, None]], axis=1
        )

        def unpack(vec):
            return JointClsOutputs.from_flat(vec.take(rows), n_classes, n_bins)

        return np.concatenate([obj.ravel(), back.ravel()]), unpack
    arr = np.asarray(outputs, dtype=float)
    return arr.ravel().copy(), lambda vec: vec.reshape(arr.shape)


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
    targets = as_labels(targets)  # once, not at every evaluation
    vec, unpack = _pack(outputs)
    res = loss_fn(outputs, targets)
    grad_vec, _ = _pack(res.grad)
    return check_gradient(
        lambda v: loss_fn(unpack(v), targets).value,
        vec,
        grad_vec,
        tolerance=tolerance,
        seed=seed,
        name=name,
        corrupt=corrupt,
    )


def _pack_params(params: nets.ModelParams) -> tuple[np.ndarray, Callable]:
    names = list(params.layers)
    shapes = [(params.layers[n].w.shape, params.layers[n].b.shape) for n in names]
    vec = np.concatenate(
        [np.concatenate([params.layers[n].w.ravel(), params.layers[n].b.ravel()]) for n in names]
    )

    def unpack(v):
        out = params.copy()
        pos = 0
        for n, (ws, bs) in zip(names, shapes):
            wn = int(np.prod(ws))
            out.layers[n].w = v[pos : pos + wn].reshape(ws)
            pos += wn
            bn = int(np.prod(bs))
            out.layers[n].b = v[pos : pos + bn].reshape(bs)
            pos += bn
        return out

    return vec, unpack


def _pack_grads(params: nets.ModelParams, grads: dict) -> np.ndarray:
    parts = []
    for n in params.layers:
        dw, db = grads[n]
        parts.append(dw.ravel())
        parts.append(db.ravel())
    return np.concatenate(parts)


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
    """End-to-end check: d(loss)/d(parameters) through forward/backward."""
    targets = as_labels(targets)
    params = nets.init_params(cfg)
    fn = nets._loss_fn(loss, cfg)
    out, cache = nets.forward(params, cfg, x, want_cache=True)
    res = fn(out, targets)
    grads = nets.backward(params, cfg, x, res.grad, cache)
    vec, unpack = _pack_params(params)

    def f(v):
        return fn(nets.forward(unpack(v), cfg, x), targets).value

    return check_gradient(
        f, vec, _pack_grads(params, grads), tolerance=tolerance, seed=seed,
        name=name, corrupt=corrupt,
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
    n_classes_grid = (1, 2, 5)
    bins_grid = (2, 8, 24, 360)
    dims_grid = (2, 3)

    def draws(tag, n_c, extra):
        out = []
        for rep in range(2):
            b = int(rng.integers(1, 9))
            out.append((f"{tag}[n_c={n_c},{extra},B={b}]", b))
        return out

    for n_c in n_classes_grid:
        for dim in dims_grid:
            for rep in range(2):
                for name, b in draws("regression", n_c, f"dim={dim}"):
                    outputs = rng.normal(0.0, 2.0, (b, n_c, dim))
                    targets = _random_targets(rng, b, n_c, with_background=False)
                    results.append(
                        check_loss(
                            lambda o, t, d=dim: regression_loss(o, t, dim=d),
                            outputs, targets, name=name,
                            seed=int(rng.integers(2**31)), corrupt=corrupt,
                        )
                    )
        for n_v in bins_grid:
            for name, b in draws("classification", n_c, f"n_v={n_v}"):
                outputs = rng.normal(0.0, 2.0, (b, n_c, n_v))
                targets = _random_targets(rng, b, n_c, with_background=False)
                results.append(
                    check_loss(
                        classification_loss, outputs, targets, name=name,
                        seed=int(rng.integers(2**31)), corrupt=corrupt,
                    )
                )
            for name, b in draws("geometric", n_c, f"n_v={n_v}"):
                outputs = rng.normal(0.0, 2.0, (b, n_c, n_v))
                targets = _random_targets(rng, b, n_c, with_background=False)
                results.append(
                    check_loss(
                        geometric_classification_loss, outputs, targets, name=name,
                        seed=int(rng.integers(2**31)), corrupt=corrupt,
                    )
                )
        for dim in dims_grid:
            for lam in (0.0, 1.0):
                for name, b in draws("joint_regression", n_c, f"dim={dim},lam={lam}"):
                    outputs = JointRegOutputs(
                        rng.normal(0.0, 2.0, (b, n_c + 1)),
                        rng.normal(0.0, 2.0, (b, n_c, dim)),
                    )
                    targets = _random_targets(rng, b, n_c, with_background=True)
                    results.append(
                        check_loss(
                            lambda o, t, l=lam: joint_regression_loss(o, t, lam=l),
                            outputs, targets, name=name,
                            seed=int(rng.integers(2**31)), corrupt=corrupt,
                        )
                    )
        for n_v in bins_grid:
            for rep in range(2):
                for name, b in draws("joint_classification", n_c, f"n_v={n_v}"):
                    outputs = JointClsOutputs(
                        rng.normal(0.0, 2.0, (b, n_c, n_v)), rng.normal(0.0, 2.0, b)
                    )
                    targets = _random_targets(rng, b, n_c, with_background=True)
                    results.append(
                        check_loss(
                            joint_classification_loss, outputs, targets, name=name,
                            seed=int(rng.integers(2**31)), corrupt=corrupt,
                        )
                    )
    return results


def net_gradient_suite(seed: int = 0, corrupt: bool = False) -> list[GradCheckResult]:
    """End-to-end checks, one small network per head kind (< 200 params)."""
    rng = np.random.default_rng(seed)
    cases = [
        ("reg", LossSpec("regression"), dict(n_dims=2)),
        ("reg", LossSpec("regression"), dict(n_dims=3)),
        ("cls", LossSpec("classification"), dict(n_bins=5)),
        ("cls", LossSpec("geometric"), dict(n_bins=5)),
        ("joint_reg", LossSpec("joint_regression"), dict(n_dims=3, split_depth=0)),
        ("joint_reg", LossSpec("joint_regression"), dict(n_dims=3, split_depth=1)),
        ("joint_reg", LossSpec("joint_regression", lam=0.0), dict(n_dims=2, split_depth=1)),
        ("joint_cls", LossSpec("joint_classification"), dict(n_bins=5)),
    ]
    results = []
    for i, (head, loss, overrides) in enumerate(cases):
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
