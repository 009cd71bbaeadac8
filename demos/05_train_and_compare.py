"""Training the small network and reproducing the headline effects.

Runs one seed of the formulation comparison (a few seconds) and prints
the mAVP24 of every arm: three pose-only heads sharing one fixed
detector, plus the jointly trained classifier.  The stable claims, which
the acceptance tests assert over five-seed medians, are

  classification > 3D regression > 2D regression, and
  joint training > the independent pipeline.

Pass --probe to also run the symmetry probe (about half a minute): on a
two-fold symmetric class a fitted regressor can only ever answer one of
the two true poses, so its paired accuracy pins to 50%.  The classifier's
mass on the two true bins is near 1, nearly all of it on the bin each
training feature was trained on.
"""

import sys
import time

import numpy as np

from viewbench.angles import azimuth_to_bin
from viewbench.experiments import compare_formulations, pose_angles, symmetry_probe
from viewbench.losses import LossSpec
from viewbench.net import NetConfig, TrainConfig, build_pool, predict, train
from viewbench.synthetic import default_benchmark

print("== a single training run, up close ==")
train_ds, test_ds = default_benchmark(seed=0, n_train_scenes=40, n_test_scenes=10)
cfg = NetConfig(
    input_dim=train_ds.feature_dim,
    trunk_widths=(32,),
    head="cls",
    n_classes=train_ds.n_classes,
    n_bins=24,
    seed=0,
)
tcfg = TrainConfig(batch_size=32, positive_fraction=1.0, total_iters=600,
                   decay_at=(400,), log_every=200, seed=0)
result = train(train_ds, cfg, tcfg, LossSpec("classification"))
print("iteration    lr        probe loss/sample")
for e in result.log:
    print(f"{e.iteration:9d}  {e.lr:8.4g}  {e.loss_per_sample:.4f}")

# `predict` reads every head as one score and one azimuth per class
# hypothesis, which `viewbench predict` hands on through `pose_angles` and
# the formulation comparison reads off each arm's prediction: a pose-only
# head scores every hypothesis 1 (the comparison takes its scores from a
# detector), and a classification head answers the centre azimuth of its
# argmax bin
fg = build_pool(test_ds)
scores, angles = pose_angles(predict(result.params, cfg, fg.fg_features))
own = angles[np.arange(len(fg.fg_class)), fg.fg_class - 1]
hits = [azimuth_to_bin(a, 24) == azimuth_to_bin(t, 24) for a, t in zip(own, fg.fg_azimuth)]
print(f"test objects posed in their true 24-bin: {np.mean(hits):.3f} "
      f"(all scores {scores.min():g})")

print()
print("== one seed of the formulation comparison ==")
start = time.perf_counter()
run = compare_formulations(seed=0)
print(f"({time.perf_counter() - start:.1f} s)")
print(f"2D regression   mAVP24 = {run.reg2d:.4f}")
print(f"3D regression   mAVP24 = {run.reg3d:.4f}")
print(f"classification  mAVP24 = {run.cls:.4f}")
print(f"joint training  mAVP24 = {run.joint_cls:.4f}")
print("(medians over seeds 0..4 are the asserted statement; "
      "run pytest tests/test_acceptance.py -s for those)")

if "--probe" in sys.argv[1:]:
    print()
    print("== symmetry probe ==")
    start = time.perf_counter()
    probe = symmetry_probe(seed=0)
    print(f"({time.perf_counter() - start:.1f} s)")
    print(f"3D regression paired accuracy = {probe.reg3d_accuracy:.3f} (ceiling 0.5)")
    print(f"2D regression paired accuracy = {probe.reg2d_accuracy:.3f}")
    print(f"classifier mass on the two true bins = {probe.pair_mass:.3f}")
else:
    print()
    print("(rerun with --probe for the symmetry experiment, ~30 s)")
