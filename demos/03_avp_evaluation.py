"""Detection scoring with pose awareness: AP next to AVP.

A detection is a true positive for AP when its box overlaps a
same-class ground truth at IoU >= 0.5.  AVP additionally requires the
predicted azimuth to land in the same K-wide bin as the truth, so
AVP <= AP always, and the gap measures how much pose quality costs.
"""

import math

from viewbench.metrics import AVP_BINS, Box, Detection, GroundTruth, evaluate, iou, pr_curve

print("== box overlap ==")
a = Box(0.0, 0.0, 1.0, 1.0)
b = Box(0.25, 0.0, 1.25, 1.0)
print(f"half-shifted unit boxes: IoU = {iou(a, b):.4f}")

print()
print("== a worked image ==")
gts = [
    GroundTruth("img0", 1, Box(0.0, 0.0, 1.0, 1.0), math.radians(10)),
    GroundTruth("img0", 1, Box(2.0, 2.0, 3.0, 3.0), math.radians(100)),
]
dets = [
    Detection("img0", 1, Box(0.0, 0.0, 1.0, 1.0), 0.9, math.radians(12)),   # hit, right bin
    Detection("img0", 1, Box(5.0, 5.0, 6.0, 6.0), 0.8, math.radians(50)),   # no overlap
    Detection("img0", 1, Box(2.0, 2.0, 3.0, 3.0), 0.7, math.radians(170)),  # hit, wrong bin
]
report = evaluate(gts, dets, bins=(4, 24))
m = report.per_class[1]
print(f"AP     = {m.ap:.4f}   (the middle detection is a false positive)")
print(f"AVP4   = {m.avp[4]:.4f}   (170 and 100 degrees sit in different quarter-turn bins)")
print(f"AVP24  = {m.avp[24]:.4f}   (the wrong-bin hit counts for AP but not AVP)")

print()
print("== the precision-recall curve behind that AP ==")
# flags arrive already sorted by score, highest first
curve = pr_curve([True, False, True], n_gt=2)
for r, p in zip(curve.recalls, curve.precisions):
    print(f"recall {r:.2f}  precision {p:.4f}")
print(f"all-points AP   = {curve.ap:.6f}")
curve11 = pr_curve([True, False, True], n_gt=2, rule="elevenpoint")
print(f"eleven-point AP = {curve11.ap:.6f}")

print()
print("== replaying the ground truth is a fixed point ==")
replay = [Detection(g.image_id, g.class_id, g.box, 1.0, g.azimuth) for g in gts]
report = evaluate(gts, replay, bins=AVP_BINS)
m = report.per_class[1]
print("AP:", m.ap, " AVP:", {k: v for k, v in sorted(m.avp.items())})

print()
print("== duplicates are false positives ==")
doubled = [
    Detection("img0", 1, Box(0.0, 0.0, 1.0, 1.0), 0.9, math.radians(10)),
    Detection("img0", 1, Box(0.02, 0.0, 1.02, 1.0), 0.85, math.radians(10)),
]
m = evaluate(gts[:1], doubled, bins=(24,)).per_class[1]
print(f"two detections, one object: AP = {m.ap:.4f} "
      "(the greedy matcher spends the ground truth on the higher score)")

print()
print("== per-class reports and means ==")
gts.append(GroundTruth("img1", 2, Box(0.0, 0.0, 1.0, 1.0), 0.0))
dets = replay + [Detection("img1", 2, Box(0.0, 0.0, 1.0, 1.0), 0.6, 0.0)]
report = evaluate(gts, dets, bins=(24,))
for c, m in sorted(report.per_class.items()):
    print(f"class {c}: n_gt = {m.n_gt}, AP = {m.ap:.3f}, AVP24 = {m.avp[24]:.3f}")
print(f"means: AP = {report.mean_ap:.3f}, AVP24 = {report.mean_avp[24]:.3f}")
