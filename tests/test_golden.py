"""Golden digests of short training runs, one per loss kind.

Each run trains a small network for a few hundred iterations with flip
augmentation on, on a tiny dataset whose last class is noiseless (so both
branches of the flipped-feature noise draw are taken).  The sha256 of the
final parameters (every value as ``float.hex``) and of the training log are
pinned.  Any change to batch sampling, feature regeneration, labelling, the
losses, backprop or SGD that moves a single bit shows up here.

Float results depend on the machine, so the digests are keyed by the
environment fingerprint of the benchmark (``perfbench/worker.py``: CPU,
core count, Python, NumPy and BLAS build and thread count) and the test is
skipped on a fingerprint that has none pinned.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

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

# fingerprint key (``perfbench/run.py:fingerprint_key``) -> pinned digests
GOLDEN = {
    "c4d7ea66397ccb79": _XEON_2VCPU,  # one BLAS thread, as the benchmark runs
    "67ee356a183fa293": _XEON_2VCPU,  # two BLAS threads
}


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


def record() -> dict[str, tuple[str, str]]:
    """Digests of every run on this machine (used to pin a new fingerprint)."""
    pool = _pool()
    return {kind: _digests(_run(kind, pool)) for kind in LOSS_HEADS}


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
    assert _digests(_run(kind, pool)) == tuple(pinned[kind])


if __name__ == "__main__":
    print(json.dumps({_fingerprint_key(): record()}, indent=4))
