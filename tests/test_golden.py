"""Golden digests of short training runs and of the CLI pipeline's artifacts.

Training: each run trains a small network for a few hundred iterations with
flip augmentation on, on a tiny dataset whose last class is noiseless (so
both branches of the flipped-feature noise draw are taken), once per loss
kind.  The sha256 of the final parameters (every value as ``float.hex``) and
of the training log are pinned.  Any change to batch sampling, feature
regeneration, labelling, the losses, backprop or SGD that moves a single bit
shows up here.

Artifacts: the small generate / train / predict / eval pipeline of the c8
acceptance check runs once with inline features and once with
``features_binary: true``, and the sha256 of every file it writes is pinned.
Any change to generation, the record and dataset codecs, checkpoints,
prediction, detection composition or evaluation that moves a byte shows up
here.

Gradcheck: ``loss_gradient_suite`` and ``net_gradient_suite`` run at
seeds 0, 3 and 7, and the sha256 over every result's name, slot count and
``max_rel_err`` (as ``float.hex``) is pinned.  Any change to the losses,
the network's backward pass or the finite-difference harness that moves a
single bit of a reported error shows up here.

Experiments: the ``repr`` of the five-seed ``median_comparison`` (the
numbers of criteria c5 and c6) and of ``symmetry_probe(0)`` (c7) is
pinned.  They come from the session fixtures the acceptance criteria use,
so pinning them costs no training run of its own.

Float results depend on the machine, so the digests are keyed by the
environment fingerprint of the benchmark (``perfbench/worker.py``: CPU,
core count, Python, NumPy and BLAS build and thread count) and the tests are
skipped on a fingerprint that has none pinned.  To pin a new machine, run
``PYTHONPATH=src python tests/test_golden.py``: it prints the training and
the artifact and gradcheck digests of this machine in the layout of ``GOLDEN``, ready to
paste.
"""

import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest
import yaml

from conftest import COMPARISON_SEEDS

from viewbench.cli import entry
from viewbench.experiments import median_comparison, symmetry_probe
from viewbench.gradcheck import loss_gradient_suite, net_gradient_suite
from viewbench.losses import LossSpec
from viewbench.net import LOSS_HEADS, POSE_ONLY_LOSSES, NetConfig, TrainConfig, build_pool, train
from viewbench.synthetic import default_class_specs, generate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# loss kind -> (params digest, log digest) on a 2-vCPU Intel Xeon (SkylakeX
# OpenBLAS core), Python 3.11.7, NumPy 2.4.6, scipy-openblas 0.3.31; equal
# with one and with two BLAS threads.
_XEON_2VCPU = {
    "regression": (
        "9facd1b8c85bff72b84b3e19209ca1e33804470392c27d0d83a29fedda2e797d",
        "00701ce79c54dfbd8771e84f3fd0d07426a125e95be0cb93bc97fd06fcd51d6f",
    ),
    "classification": (
        "7c7328f6365708084a5f7e382697a3fd47b62cd91ac30906295c67781b7b665b",
        "3099203fb2ffa8831548b3fa7c9f6d5de3ba9c8830a41c52a2e8eda8ff87d9fc",
    ),
    "geometric": (
        "c360b2cfa2e9edaa3cf01fa43a672be9703c677c13f4a4f57708343e2b0f5c78",
        "c25fd6b8937067a0eef09786092ed3a8ff85b63b42ce67faeaf41c33d5081ff3",
    ),
    "joint_regression": (
        "45d40b816b26c96a14ec2be4edb1a4fc3d105d9b0bbd915007a1b12ceecaf21d",
        "88aa03657f90f502f986c97834d0c29e2f040ee8203a85c9659a7a204e9cafc9",
    ),
    "joint_classification": (
        "469b27184cea6804caeaf9fac7232b49e32a273b4ec17473bab075c1af5cbc34",
        "f42a6da352342c013a5b7c09ebba29e360107a8dd5af0b214b04e01c194fc70d",
    ),
}

# features layout -> artifact path -> sha256, same machine
_XEON_2VCPU_ARTIFACTS = {
    "inline": {
        "bench/manifest.json":
            "daffe0216009636788afec0842c6a1fb664340a24b6a4a05e35e1e9cfdd2edd2",
        "bench/test_data.txt":
            "eeeaa2d077bdced6cb7d6dab26276c92365a1c419b024d72ecdaaa6b646c0c84",
        "bench/test_gt.txt":
            "483e56ceac26b98c5fab1f3a617e6ea12e87b19c90453f0af908fb5b84e86be8",
        "bench/train_data.txt":
            "41a07aaf8a31125c260e9f300da0c58c3f09fc368cea9745632dd99c0721626d",
        "bench/train_gt.txt":
            "0e4b34e699c157da702432b9b0bf870817e5128037c3b328e163a64ca9ac8ffa",
        "dets.txt":
            "29fe2db7ff19a22e925d818cb9c9aee7ce8638006bb010a1679176357f43d8fa",
        "report.json":
            "1a4ddd342d4650a0f7f6d77a8af4cae06f987bdf57af0cb4d22009ed51575ba7",
        "run/checkpoint.txt":
            "57da6a84fde0448f3ef2207bed44b482480b7f4a4b940394be1a434c4e849066",
        "run/train_log.txt":
            "fc10a148e037de3104fb6a7db37283ac0eb750cf98b83100a0493bda2df173f0",
    },
    "binary": {
        "bench/manifest.json":
            "6d03e2c80fa0954e9cfd23656bd89d62d0a58548b75e42695e36d8fec3a62937",
        "bench/test_data.txt":
            "978dc7f2ec29f90da1a76afb2a5cd6b13113e75877826d3f090aec72bcfb0686",
        "bench/test_features.npy":
            "9da1d1db78b62619fcd0e94421e47cf85d5de322847cbdd44a77f17355fe71f4",
        "bench/test_gt.txt":
            "483e56ceac26b98c5fab1f3a617e6ea12e87b19c90453f0af908fb5b84e86be8",
        "bench/train_data.txt":
            "d5b6f1994801e755b988a0360beffa6e5da428e34f441e3245f426912f751e61",
        "bench/train_features.npy":
            "b0b9396a542f3125f98ab1a84c5324030a9e6b52292d4c54dd739c54c5020cff",
        "bench/train_gt.txt":
            "0e4b34e699c157da702432b9b0bf870817e5128037c3b328e163a64ca9ac8ffa",
        "dets.txt":
            "29fe2db7ff19a22e925d818cb9c9aee7ce8638006bb010a1679176357f43d8fa",
        "report.json":
            "1a4ddd342d4650a0f7f6d77a8af4cae06f987bdf57af0cb4d22009ed51575ba7",
        "run/checkpoint.txt":
            "57da6a84fde0448f3ef2207bed44b482480b7f4a4b940394be1a434c4e849066",
        "run/train_log.txt":
            "fc10a148e037de3104fb6a7db37283ac0eb750cf98b83100a0493bda2df173f0",
    },
}

# gradcheck suites at GRADCHECK_SEEDS, same machine
_XEON_2VCPU_GRADCHECK = "f235956ae8e25adcd803bc56003ba8be68e6798601033ef17e17eb41ffe97b5f"

# repr of median_comparison(COMPARISON_SEEDS) and of symmetry_probe(0),
# same machine, with one and with two BLAS threads
_XEON_2VCPU_EXPERIMENTS = {
    "median_comparison": "{'reg2d': 0.33973687602879443, 'reg3d': 0.3722204084784951, "
                         "'cls': 0.4918437241459055, 'joint_cls': 0.503732806643828}",
    "symmetry_probe": "SymmetryProbeResult(reg3d_accuracy=0.5, reg2d_accuracy=0.5, "
                      "pair_mass=0.9999885395868422)",
}

# fingerprint key (``perfbench/run.py:fingerprint_key``) -> pinned digests
GOLDEN = {
    # one BLAS thread, as the benchmark runs
    "c4d7ea66397ccb79": {
        "training": _XEON_2VCPU,
        "artifacts": _XEON_2VCPU_ARTIFACTS,
        "gradcheck": _XEON_2VCPU_GRADCHECK,
        "experiments": _XEON_2VCPU_EXPERIMENTS,
    },
    # two BLAS threads
    "67ee356a183fa293": {
        "training": _XEON_2VCPU,
        "artifacts": _XEON_2VCPU_ARTIFACTS,
        "gradcheck": _XEON_2VCPU_GRADCHECK,
        "experiments": _XEON_2VCPU_EXPERIMENTS,
    },
}

GRADCHECK_SEEDS = (0, 3, 7)

# The c8 pipeline (tests/test_acceptance.py): its configs, with
# ``features_binary`` set per layout.
PIPELINE_GEN = {
    "seed": 5,
    "dataset": {
        "feature_dim": 8,
        "noise_sigma": 0.05,
        "n_train_scenes": 6,
        "n_test_scenes": 3,
        "classes": [{"class_id": 1}, {"class_id": 2}],
    },
}
PIPELINE_TRAIN = {
    "seed": 5,
    "data": "bench/manifest.json",
    "net": {"trunk_widths": [16], "head": "cls"},
    "train": {
        "batch_size": 16,
        "positive_fraction": 1.0,
        "total_iters": 120,
        "decay_at": [80],
        "log_every": 40,
    },
    "loss": {"kind": "classification"},
}
PIPELINE_STEPS = (
    ["generate", "--config", "gen.yaml", "--out", "bench"],
    ["train", "--config", "train.yaml", "--out", "run"],
    ["predict", "run/checkpoint.txt", "bench/manifest.json", "--out", "dets.txt"],
    ["eval", "bench/test_gt.txt", "dets.txt", "--out", "report.json"],
)
LAYOUTS = {"inline": False, "binary": True}


def _fingerprint_key() -> str:
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import run
    import worker

    return run.fingerprint_key(worker.fingerprint())


def _pool():
    specs = list(default_class_specs(seed=0))
    specs[-1] = dataclasses.replace(specs[-1], noise_sigma=0.0)
    return build_pool(generate(7, 12, specs))


def _run(kind: str, pool):
    head = LOSS_HEADS[kind]
    cfg = NetConfig(
        input_dim=32, trunk_widths=(16,), head=head, n_classes=4, n_bins=24,
        n_dims=2 if kind == "joint_regression" else 3, seed=1,
    )
    tcfg = TrainConfig(
        lr=0.01, batch_size=32, total_iters=200, decay_at=(150,), log_every=50,
        positive_fraction=1.0 if kind in POSE_ONLY_LOSSES else 0.25,
        flip_augment=True, seed=2,
    )
    return train(pool, cfg, tcfg, LossSpec(kind, lam=0.5))


def _digests(res) -> tuple[str, str]:
    h = hashlib.sha256()
    for name, layer in res.params.layers.items():
        h.update(name.encode() + b"\0")
        for arr in (layer.w, layer.b):
            h.update(" ".join(float(v).hex() for v in arr.ravel()).encode() + b"\n")
    log = "\n".join(
        f"{e.iteration} {e.lr.hex()} {e.loss.hex()} {e.loss_per_sample.hex()}" for e in res.log
    )
    return h.hexdigest(), hashlib.sha256(log.encode()).hexdigest()


def pipeline_digests(root: Path, features_binary: bool) -> dict[str, str]:
    """Run the c8 pipeline in the empty directory ``root`` (relative paths,
    so the paths echoed into the artifacts do not depend on ``root``) and
    return the sha256 of every file it writes, keyed by relative path."""
    gen = copy.deepcopy(PIPELINE_GEN)
    gen["dataset"]["features_binary"] = features_binary
    (root / "gen.yaml").write_text(yaml.safe_dump(gen))
    (root / "train.yaml").write_text(yaml.safe_dump(PIPELINE_TRAIN))
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [entry(argv) for argv in PIPELINE_STEPS]
    finally:
        os.chdir(cwd)
    assert codes == [0] * len(PIPELINE_STEPS)
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.suffix != ".yaml"
    }


def gradcheck_digest(loss_suite=loss_gradient_suite, net_suite=net_gradient_suite) -> str:
    """sha256 over (name, n_slots, max_rel_err.hex()) of both suites at
    every seed of GRADCHECK_SEEDS."""
    h = hashlib.sha256()
    for seed in GRADCHECK_SEEDS:
        for suite in (loss_suite, net_suite):
            for r in suite(seed):
                h.update(f"{r.name} {r.n_slots} {r.max_rel_err.hex()}\n".encode())
    return h.hexdigest()


def record() -> dict:
    """Digests of every run on this machine (used to pin a new fingerprint)."""
    pool = _pool()
    artifacts = {}
    for layout, binary in LAYOUTS.items():
        with tempfile.TemporaryDirectory() as tmp:
            artifacts[layout] = pipeline_digests(Path(tmp), binary)
    return {
        "training": {kind: _digests(_run(kind, pool)) for kind in LOSS_HEADS},
        "artifacts": artifacts,
        "gradcheck": gradcheck_digest(),
        "experiments": {
            "median_comparison": repr(median_comparison(COMPARISON_SEEDS)),
            "symmetry_probe": repr(symmetry_probe(0)),
        },
    }


@pytest.fixture(scope="module")
def pinned():
    key = _fingerprint_key()
    if key not in GOLDEN:
        pytest.skip(f"no golden digests pinned for environment fingerprint {key}")
    return GOLDEN[key]


@pytest.fixture(scope="module")
def pool():
    return _pool()


@pytest.mark.parametrize("kind", list(LOSS_HEADS))
def test_short_training_digest(kind, pinned, pool):
    assert _digests(_run(kind, pool)) == tuple(pinned["training"][kind])


@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_pipeline_artifact_digests(layout, pinned, tmp_path):
    assert pipeline_digests(tmp_path, LAYOUTS[layout]) == pinned["artifacts"][layout]


def test_gradcheck_digest(pinned, gradient_suites):
    digest = gradcheck_digest(gradient_suites.loss, gradient_suites.net)
    assert digest == pinned["gradcheck"]


def test_median_comparison_repr(pinned, comparison_medians):
    assert repr(comparison_medians[0]) == pinned["experiments"]["median_comparison"]


def test_symmetry_probe_repr(pinned, symmetry_probe_0):
    assert repr(symmetry_probe_0) == pinned["experiments"]["symmetry_probe"]


if __name__ == "__main__":
    print(json.dumps({_fingerprint_key(): record()}, indent=4))
