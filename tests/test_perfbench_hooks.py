"""The benchmark's tracing hooks still find every function they wrap.

``perfbench/tracing.py`` wraps viewbench functions by name for its span and
count passes.  Renaming or unbinding one of them would only fail the
benchmark's traced run; here it fails the test suite.  The module is
imported from the ``perfbench`` directory as it stands.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402
import worker  # noqa: E402


def _modules():
    return {m: importlib.import_module(f"viewbench.{m}") for m in worker.MODULES}


def _short_runs(modules):
    """A tiny dataset and a 5-iteration run of two loss kinds."""
    synthetic, net, losses = modules["synthetic"], modules["net"], modules["losses"]
    ds = synthetic.generate(3, 4, synthetic.default_class_specs(feature_dim=8))
    runs = (("joint_cls", "joint_classification", 0.25), ("reg", "regression", 1.0))
    for head, kind, frac in runs:
        cfg = net.NetConfig(input_dim=8, trunk_widths=(6,), head=head, n_classes=4)
        tcfg = net.TrainConfig(batch_size=16, positive_fraction=frac, total_iters=5, log_every=2)
        net.train(ds, cfg, tcfg, losses.LossSpec(kind))


def _bound_functions(modules):
    return {
        (name, attr): value
        for name, module in modules.items()
        for attr, value in vars(module).items()
        if callable(value)
    }


@pytest.mark.parametrize("mode", ["spans", "counts"])
def test_hooks_install_run_and_restore(mode):
    modules = _modules()
    before = _bound_functions(modules)
    post_init = vars(modules["losses"].Target)["__post_init__"]
    installer = tracing.Installer()
    if mode == "spans":
        hooks = tracing.Tracer("tier1")
    else:
        hooks = tracing.Counter()
    hooks.install(installer, modules)
    try:
        _short_runs(modules)
        modules["losses"].Target(1, 0.5)
    finally:
        installer.restore()
    assert _bound_functions(modules) == before
    assert vars(modules["losses"].Target)["__post_init__"] is post_init

    if mode == "spans":
        names = {span[0] for span in hooks.spans}
        assert {
            "synthetic.generate", "net.train", "net.build_pool", "net.make_batch",
            "net.forward", "net.backward", "net.sgd_step",
            "losses.joint_classification_loss", "losses.regression_loss",
        } <= names
        assert names <= tracing.SPAN_NAMES
    else:
        totals = hooks.totals()
        assert set(totals) <= tracing.COUNTER_NAMES
        for key in (
            "synthetic.generate.proposals", "synthetic.appearance.calls",
            "angles.azimuth_to_bin.calls", "angles.encode.calls",
            "angles.canonicalize.calls", tracing.TARGET_COUNTER,
        ):
            assert totals.get(key, 0) > 0, key
