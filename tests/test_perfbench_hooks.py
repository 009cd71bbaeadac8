"""The benchmark's tracing hooks still find every function they wrap.

``perfbench/tracing.py`` wraps viewbench functions by name for its span and
count passes, and ``perfbench/worker.py``'s plain pass wraps ``net.train``
to time training, reading the ``TrainConfig`` from its third argument.
Renaming or unbinding one of them, or changing how ``train`` is called,
would only fail the benchmark's runs (or zero its
``train_samples_per_s``); here it fails the test suite.  The modules are
imported from the ``perfbench`` directory as they stand.
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


def _short_runs(modules, tmp):
    """A tiny dataset, a 5-iteration run of two loss kinds, and one round
    of the joint head's detections through compose, the detection file in
    directory ``tmp``, parse and evaluate.  Returns the detection count."""
    synthetic, net, losses = modules["synthetic"], modules["net"], modules["losses"]
    experiments, records, metrics = modules["experiments"], modules["records"], modules["metrics"]
    ds = synthetic.generate(3, 4, synthetic.default_class_specs(feature_dim=8))
    runs = (("joint_cls", "joint_classification", 0.25), ("reg", "regression", 1.0))
    for head, kind, frac in runs:
        cfg = net.NetConfig(input_dim=8, trunk_widths=(6,), head=head, n_classes=4)
        tcfg = net.TrainConfig(batch_size=16, positive_fraction=frac, total_iters=5, log_every=2)
        params = net.train(ds, cfg, tcfg, losses.LossSpec(kind)).params
        if head == "joint_cls":
            scores, angles = experiments.pose_angles(net.predict(params, cfg, ds.features()))
    records.write_detections(tmp / "dets.txt", experiments.compose_detections(ds, scores, angles))
    dets = records.parse_detections(records.read_lines(tmp / "dets.txt"))
    metrics.evaluate(ds.ground_truths(), dets)
    return len(dets)


def _bound_functions(modules):
    return {
        (name, attr): value
        for name, module in modules.items()
        for attr, value in vars(module).items()
        if callable(value)
    }


@pytest.mark.parametrize("mode", ["spans", "counts"])
def test_hooks_install_run_and_restore(mode, tmp_path):
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
        n_dets = _short_runs(modules, tmp_path)
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
            "experiments.compose_detections", "records.parse_detections", "metrics.evaluate",
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
        # the count pass weighs evaluate by the len() of its detections
        assert n_dets > 0
        assert totals["metrics.evaluate.detections"] == n_dets


def test_plain_pass_times_training(tmp_path):
    modules = _modules()
    before = _bound_functions(modules)
    installer = tracing.Installer()
    speed = worker.SpeedProbe()
    totals = {"train_s": 0.0, "train_rows": 0}
    worker._time_training(installer, modules["net"], speed, totals, [])
    try:
        with speed:
            _short_runs(modules, tmp_path)
    finally:
        installer.restore()
    assert _bound_functions(modules) == before
    assert totals["train_rows"] == 2 * 5 * 16  # two runs of 5 iterations of 16 rows
    assert totals["train_s"] > 0.0


def test_arm_tags_name_every_arm():
    """Every arm of the experiments' arm table trains under its own tag, so
    ``experiments.arm_train_s.<arm>`` is reported for each."""
    modules = _modules()
    experiments, synthetic = modules["experiments"], modules["synthetic"]
    ds = synthetic.generate(3, 4, synthetic.default_class_specs(feature_dim=8))
    pool = modules["net"].build_pool(ds)
    installer = tracing.Installer()
    tracer = tracing.Tracer("tier1")
    tracer.install(installer, modules)
    try:
        for arm in experiments._ARMS:
            cfg, _ = experiments.train_arm(ds, pool, arm, 0, 1, 6, experiments._compare_tcfg)
            assert tracing._arm((None, cfg), {}) == arm
    finally:
        installer.restore()
    tags = [tag for name, *_, tag in tracer.spans if name == "net.train"]
    assert tags == list(experiments._ARMS)


@pytest.mark.parametrize("binary", [False, True])
def test_bytes_written_counts_streamed_files(binary, tmp_path):
    """The count pass weighs ``commit_files`` by the ``len()`` of its values
    after the call, so a streamed data file counts the bytes it staged."""
    modules = _modules()
    synthetic, records = modules["synthetic"], modules["records"]
    specs = synthetic.default_class_specs(feature_dim=8)
    train = synthetic.generate(3, 12, specs, split="train")
    test = synthetic.generate(4, 0, specs, split="test")
    installer = tracing.Installer()
    counter = tracing.Counter()
    counter.install(installer, modules)
    try:
        records.write_benchmark(tmp_path, train, test, features_binary=binary)
    finally:
        installer.restore()
    on_disk = sum(p.stat().st_size for p in tmp_path.iterdir())
    assert len(list(tmp_path.iterdir())) == (7 if binary else 5)
    assert counter.totals()["records.bytes_written"] == on_disk
