"""The training losses and their analytic gradients.

Five losses share one calling convention: head outputs plus a list of
Target labels (or one Labels batch of arrays, as training builds it) in,
a scalar value plus a gradient of the same shape as the outputs back.
The pose-only losses see foreground samples; the joint losses also
accept background targets and couple detection with pose through their
normalization.
"""

import math

import numpy as np

from viewbench import (
    JointClsOutputs,
    JointRegOutputs,
    Target,
    classification_loss,
    default_geometric_sigma,
    encode,
    geometric_classification_loss,
    joint_classification_loss,
    joint_detection_scores,
    joint_regression_loss,
    regression_loss,
)
from viewbench.gradcheck import check_loss, loss_gradient_suite

N_CLASSES, N_BINS, DIM = 2, 8, 3
rng = np.random.default_rng(0)
targets = [Target(1, 0.4), Target(2, 3.6)]

print("== regression on embeddings ==")
outputs = rng.normal(0, 1, (2, N_CLASSES, DIM))
res = regression_loss(outputs, targets, dim=DIM)
print(f"random outputs: loss = {res.value:.4f}")
perfect = np.zeros_like(outputs)
for i, t in enumerate(targets):
    perfect[i, t.class_id - 1] = encode(t.azimuth, DIM)
res = regression_loss(perfect, targets, dim=DIM)
print(f"perfect outputs: loss = {res.value:.4f}, max |grad| = {np.abs(res.grad).max():.4f}")

print()
print("== per-class bin classification ==")
logits = np.zeros((1, 1, N_BINS))
res = classification_loss(logits, [Target(1, 0.0)])
print(f"uniform logits over {N_BINS} bins: loss = {res.value:.6f} = ln {N_BINS} = {math.log(N_BINS):.6f}")

print()
print("== geometric weighting spreads credit to nearby bins ==")
for sigma in (default_geometric_sigma(N_BINS), 1.0, 1e-6):
    res = geometric_classification_loss(logits, [Target(1, 0.0)], sigma=sigma)
    print(f"sigma = {sigma:g}: uniform-logit loss = {res.value:.6f}")
print("(at tiny sigma the value collapses to the plain cross entropy above)")

print()
print("== joint regression: detection cross entropy + weighted pose term ==")
out = JointRegOutputs(det=rng.normal(0, 1, (3, N_CLASSES + 1)),
                      pose=rng.normal(0, 1, (3, N_CLASSES, DIM)))
mixed = [Target(0), Target(1, 0.4), Target(2, 3.6)]
for lam in (0.0, 1.0):
    res = joint_regression_loss(out, mixed, lam=lam)
    print(f"lambda = {lam}: loss = {res.value:.4f}")

print()
print("== joint classification: one softmax over every (class, bin) slot ==")
out = JointClsOutputs(obj=np.zeros((1, N_CLASSES, N_BINS)), back=np.zeros(1))
res = joint_classification_loss(out, [Target(1, 0.0)])
n_slots = N_CLASSES * N_BINS + 1
print(f"uniform logits: loss = {res.value:.6f} = ln {n_slots} = {math.log(n_slots):.6f}")

# class scores: each class's share of the global softmax, summed over its bins
obj = np.zeros((2, N_CLASSES, N_BINS))
obj[1, 0, 2] = 8.0  # second sample: one confident pose slot of class 1
scores = joint_detection_scores(JointClsOutputs(obj=obj, back=np.zeros(2)))
print(f"uniform detection score = {scores[0, 0]:.6f} = {N_BINS}/{n_slots} = {N_BINS / n_slots:.6f}")
print(f"one confident pose slot lifts the class score to {scores[1, 0]:.4f}")

print()
print("== every analytic gradient is checked against finite differences ==")
outputs = rng.normal(0, 2, (4, N_CLASSES, N_BINS))
one = check_loss(classification_loss, outputs, [Target(1, 0.4), Target(2, 3.6),
                                                Target(1, 1.0), Target(2, 5.0)],
                 name="demo", seed=0)
print(f"single spot check: max relative error {one.max_rel_err:.2e} "
      f"(tolerance {one.tolerance:.0e})")

results = loss_gradient_suite(seed=0)
worst = max(r.max_rel_err for r in results)
print(f"full suite: {len(results)} cases, all passed: {all(r.passed for r in results)}, "
      f"worst error {worst:.2e}")
