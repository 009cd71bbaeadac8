"""Spans and call counts for viewbench, installed from outside the package.

Modules bind imports by name (``from .net import train``), so a function is
reached through every module namespace that holds it, not only through the
module that defines it.  ``Installer`` puts a wrapper on each such name and
puts the originals back afterwards, leaving no wrapper behind.

Two passes use the wrappers, never together:

* the span pass (``Tracer``) times calls at layer boundaries; spans are kept
  in memory and written out when the run ends;
* the count pass (``Counter``) counts calls of per-sample functions, which
  are too frequent to time without distorting the run.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import sys
import time
from types import ModuleType

# Layer boundaries timed as spans, by defining module.
SPANNED = {
    "net": ("train", "build_pool", "make_batch", "forward", "backward", "sgd_step", "predict"),
    "losses": (
        "regression_loss",
        "classification_loss",
        "joint_regression_loss",
        "joint_classification_loss",
    ),
    "synthetic": ("generate",),
    "records": (
        "write_benchmark",
        "read_benchmark",
        "format_detections",
        "parse_detections",
        "parse_ground_truths",
        "save_checkpoint",
        "load_checkpoint",
    ),
    "metrics": ("evaluate",),
    "experiments": ("compose_detections", "pose_angles"),
    "gradcheck": ("loss_gradient_suite", "net_gradient_suite"),
}


def _arg(i, name, size):
    def weigh(args, kwargs, out):
        return size(args[i] if len(args) > i else kwargs[name])

    return weigh


# Counted functions, by defining module: counter name and the amount one
# call adds, or None to count the call itself.
COUNTED = {
    "angles": {
        "encode": ("angles.encode.calls", None),
        "azimuth_to_bin": ("angles.azimuth_to_bin.calls", None),
        "canonicalize": ("angles.canonicalize.calls", None),
        "decode": ("angles.decode.calls", None),
        "bin_center": ("angles.bin_center.calls", None),
    },
    "synthetic": {
        "appearance": ("synthetic.appearance.calls", None),
        "generate": ("synthetic.generate.proposals", lambda a, k, out: out.n_samples),
    },
    "metrics": {
        "iou": ("metrics.iou.calls", None),
        "evaluate": ("metrics.evaluate.detections", _arg(1, "dets", len)),
    },
    "records": {
        "atomic_write_bytes": ("records.bytes_written", _arg(1, "data", len)),
        "commit_files": (
            "records.bytes_written",
            _arg(0, "files", lambda files: sum(len(b) for b in files.values())),
        ),
    },
}

TARGET_COUNTER = "losses.Target.constructed"
SPAN_NAMES = frozenset(f"{layer}.{name}" for layer, names in SPANNED.items() for name in names)
COUNTER_NAMES = frozenset(
    [TARGET_COUNTER] + [key for table in COUNTED.values() for key, _ in table.values()]
)

_MARK = "__perfbench_original__"


def package_modules() -> list[ModuleType]:
    """The loaded viewbench package and its modules."""
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "viewbench" or name.startswith("viewbench."))
    ]


def _site(module: ModuleType) -> str:
    return module.__name__.rpartition(".")[2]


class Installer:
    """Replaces functions at every name that binds them, and restores them."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap_function(self, fn, make_wrapper) -> None:
        """Bind ``make_wrapper(fn, site)`` wherever a package module binds
        ``fn``; ``site`` names the module whose code looks the name up."""
        found = False
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    wrapper = functools.wraps(fn)(make_wrapper(fn, _site(module)))
                    setattr(wrapper, _MARK, fn)
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    found = True
        if not found:
            raise LookupError(f"{fn.__module__}.{fn.__name__} is bound nowhere")

    def wrap_method(self, cls, attr: str, make_wrapper) -> None:
        fn = vars(cls)[attr]
        wrapper = functools.wraps(fn)(make_wrapper(fn, _site(sys.modules[cls.__module__])))
        setattr(wrapper, _MARK, fn)
        self._undo.append((cls, attr, fn))
        setattr(cls, attr, wrapper)

    def restore(self) -> None:
        """Put every original back and check that no wrapper is left."""
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        owners = {id(o): o for o, _, _ in self._undo}
        self._undo.clear()
        for owner in list(owners.values()) + package_modules():
            for attr, value in vars(owner).items():
                if hasattr(value, _MARK):
                    raise RuntimeError(f"wrapper left on {owner.__name__}.{attr}")


def _arm(args, kwargs):
    """Experiment arm of a ``train`` call, read from the net it trains."""
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    if cfg.head == "reg":
        return f"reg{cfg.n_dims}d"
    return {"joint_reg": "detector", "cls": "cls", "joint_cls": "joint_cls"}[cfg.head]


class Tracer:
    """Span pass: one span per call at each layer boundary.

    A span is ``[name, start, end, parent, tag]``; ``parent`` is the index
    of the enclosing span (-1 at the top) and ``tag`` the experiment arm of
    a ``net.train`` call made from ``experiments``.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, tag=None):
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, tag]
        self.spans.append(rec)
        self._open.append(idx)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def _wrapper(self, name: str, tagger=None):
        span = self.span

        def make(fn, site):
            tag_of = tagger if site == "experiments" else None

            def wrapper(*args, **kwargs):
                with span(name, tag_of(args, kwargs) if tag_of else None):
                    return fn(*args, **kwargs)

            return wrapper

        return make

    def install(self, installer: Installer, modules: dict[str, ModuleType]) -> None:
        for layer, names in SPANNED.items():
            for name in names:
                tagger = _arm if (layer, name) == ("net", "train") else None
                installer.wrap_function(
                    getattr(modules[layer], name), self._wrapper(f"{layer}.{name}", tagger)
                )

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, tag in self.spans:
                fh.write(json.dumps({"run": self.run_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "tag": tag}) + "\n")


def span_summary(spans: list[list], root: int) -> dict:
    """Per-name calls, total and self time, arm training time and the share
    of the root span that its direct children cover."""
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    calls: dict[str, int] = collections.Counter()
    total: dict[str, float] = collections.defaultdict(float)
    self_s: dict[str, float] = collections.defaultdict(float)
    arms: dict[str, float] = collections.defaultdict(float)
    for i, (name, _, _, _, tag) in enumerate(spans):
        if i == root:
            continue
        calls[name] += 1
        total[name] += dur[i]
        self_s[name] += dur[i] - child[i]
        if tag is not None:
            arms[tag] += dur[i]
    return {
        "calls": dict(calls),
        "total_s": dict(total),
        "self_s": dict(self_s),
        "arm_train_s": dict(arms),
        "coverage_frac": child[root] / dur[root],
    }


class Counter:
    """Count pass: calls of per-sample functions, per counter and site."""

    def __init__(self):
        self.counts: dict[tuple[str, str], int] = collections.Counter()

    def _wrapper(self, key: str, weigh):
        counts = self.counts

        def make(fn, site):
            slot = (key, site)

            def count_call(*args, **kwargs):
                counts[slot] += 1
                return fn(*args, **kwargs)

            def count_weight(*args, **kwargs):
                out = fn(*args, **kwargs)
                counts[slot] += weigh(args, kwargs, out)
                return out

            return count_call if weigh is None else count_weight

        return make

    def install(self, installer: Installer, modules: dict[str, ModuleType]) -> None:
        for layer, table in COUNTED.items():
            for name, (key, weigh) in table.items():
                installer.wrap_function(getattr(modules[layer], name), self._wrapper(key, weigh))
        counts = self.counts

        def make_init(fn, site):
            slot = (TARGET_COUNTER, site)

            def __post_init__(target):
                counts[slot] += 1
                return fn(target)

            return __post_init__

        installer.wrap_method(modules["losses"].Target, "__post_init__", make_init)

    def totals(self) -> dict[str, int]:
        out: dict[str, int] = collections.Counter()
        for (key, _), n in self.counts.items():
            out[key] += n
        return dict(out)

    def by_site(self) -> dict[str, int]:
        return {f"{key}@{site}": n for (key, site), n in sorted(self.counts.items())}
