"""The seeded synthetic benchmark: appearance model, scene generation,
and the built-in sanity oracle.

Each class is a smooth periodic curve through feature space; a sample's
feature is the curve at its azimuth plus Gaussian noise.  A class with
symmetry_order m repeats its curve m times per turn, which makes poses
that are 360/m degrees apart genuinely indistinguishable, exactly the
ambiguity that separates regression from classification downstream.
"""

import math

import numpy as np

from viewbench.synthetic import (
    ClassSpec,
    appearance,
    appearance_clean,
    default_class_specs,
    generate,
    oracle_eval,
    regenerate_feature,
)

print("== appearance curves ==")
spec = ClassSpec(class_id=1, seed=0, feature_dim=6, noise_sigma=0.0)
for deg in (0, 90, 180, 270):
    f = appearance_clean(spec, math.radians(deg))
    print(f"azimuth {deg:3d} deg: feature = {np.round(f, 3)}")

print()
print("== two-fold symmetry makes antipodal poses identical ==")
sym = ClassSpec(class_id=2, seed=0, feature_dim=6, symmetry_order=2, noise_sigma=0.0)
a = appearance_clean(sym, math.radians(40))
b = appearance_clean(sym, math.radians(220))
print(f"max |f(40 deg) - f(220 deg)| = {np.abs(a - b).max():.2e}")
a = appearance_clean(spec, math.radians(40))
b = appearance_clean(spec, math.radians(220))
print(f"same probe on the asymmetric class: {np.abs(a - b).max():.2f}")

print()
print("== generating scenes ==")
specs = default_class_specs(seed=0)
print("default roster:", [(s.class_id, s.symmetry_order) for s in specs])
ds = generate(seed=0, n_scenes=5, class_specs=specs)
print(f"{len(ds.scenes)} scenes, {len(ds.ground_truths())} ground truths, "
      f"{ds.n_samples} proposals, feature_dim {ds.feature_dim}")
# the proposals are one table of columns, a row per proposal, scene by scene
t = ds.proposals
scene = ds.scenes[0]
rows = np.flatnonzero(t.scene == 0)
print(f"scene 0 ({scene.image_id}): {len(scene.gts)} objects, {rows.size} proposals")
for r in rows[:4]:
    j = t.matched_gt[r]
    kind = "background" if j < 0 else f"gt {j} at IoU {t.iou[r]:.3f}"
    print(f"  proposal: {kind}")

fg, bg = t.iou[t.matched_gt >= 0], t.iou[t.matched_gt < 0]
# foreground proposals are jittered copies of a truth box, backgrounds
# are rejection-sampled to stay clear of every object
print(f"foreground IoU range [{fg.min():.3f}, {fg.max():.3f}] (always >= 0.5)")
print(f"background IoU range [{bg.min():.3f}, {bg.max():.3f}] (always < 0.3)")

print()
print("== features regenerate bitwise from recorded noise seeds ==")
again = regenerate_feature(ds, 0)
print("regenerated == stored:", bool(np.array_equal(ds.features()[0], again)))

print()
print("== the replay oracle: scoring the truth itself is perfect ==")
report = oracle_eval(ds)
print(f"mean AP = {report.mean_ap}, mean AVP = {dict(sorted(report.mean_avp.items()))}")

print()
print("== determinism ==")
ds2 = generate(seed=0, n_scenes=5, class_specs=specs)
same = all(
    np.array_equal(getattr(ds.proposals, c), getattr(ds2.proposals, c))
    for c in ("scene", "boxes", "features", "matched_gt", "iou", "noise_seed")
)
print("same seed, same dataset:", same)
noisy = appearance(sym, 0.3, np.random.default_rng(1))
print("with noise_sigma 0 the noisy and clean paths agree:",
      bool(np.array_equal(noisy, appearance_clean(sym, 0.3))))
