"""Azimuth representations: canonical radians, centered bins, and the
two embedding codecs.

Everything downstream (losses, metrics, the network heads) speaks one of
three dialects shown here: a canonical angle in [0, 2pi), a 1-based bin
index whose first bin is centered on zero, or a small embedding vector
that a regressor can produce and a decoder can turn back into an angle.
"""

import math

import numpy as np

from viewbench.angles import (
    azimuth_to_bin,
    bin_center,
    canonicalize,
    circular_difference,
    decode,
    encode,
    flip_azimuth,
)
from viewbench.errors import AmbiguousDecode

print("== canonical angles ==")
for theta in (0.0, -0.1, 7.0, 2 * math.pi):
    print(f"canonicalize({theta:+.4f}) = {canonicalize(theta):.4f}")

print()
print("== centered bins, 24 wide ==")
# bin 1 is centered on azimuth 0, so its edges sit at +-7.5 degrees
for deg in (0.0, 7.49, 7.51, 352.4, 352.6):
    b = azimuth_to_bin(math.radians(deg), 24)
    print(f"{deg:7.2f} deg -> bin {b:2d} (center {math.degrees(bin_center(b, 24)):6.1f} deg)")

print()
print("== left-right flips ==")
theta = math.radians(40.0)
print(f"flip_azimuth(40 deg) = {math.degrees(flip_azimuth(theta)):.1f} deg")
print("flip is an involution:", math.degrees(flip_azimuth(flip_azimuth(theta))))

print()
print("== embedding codecs ==")
theta = math.radians(30.0)
e2 = encode(theta, 2)
e3 = encode(theta, 3)
print(f"encode(30 deg, 2) = {np.round(e2, 4)}  |.| = {np.linalg.norm(e2):.4f}")
print(f"encode(30 deg, 3) = {np.round(e3, 4)}  |.| = {np.linalg.norm(e3):.4f}")
# the 3-coordinate codec is linearly dependent: first + third = second
print(f"e3[0] + e3[2] - e3[1] = {e3[0] + e3[2] - e3[1]:.2e}")

print()
print("== decoding is nearest-point, so noise is tolerated ==")
noisy = e3 + np.array([0.21, -0.1, 0.05])
print(f"decode(clean) = {math.degrees(decode(e3)):.4f} deg")
print(f"decode(noisy) = {math.degrees(decode(noisy)):.4f} deg")
# components orthogonal to the codec plane cannot move the decode
shifted = e3 + 0.7 * np.array([1.0, -1.0, 1.0])
print(f"decode(plane-orthogonal shift) = {math.degrees(decode(shifted)):.4f} deg")

print()
print("== round-trip accuracy over 2000 random angles ==")
rng = np.random.default_rng(0)
for dim in (2, 3):
    worst = max(
        circular_difference(decode(encode(t, dim)), t)
        for t in rng.uniform(0, 2 * math.pi, 2000)
    )
    print(f"dim {dim}: worst round-trip error {worst:.2e} rad")

print()
print("== degenerate embeddings refuse to guess ==")
try:
    decode(np.zeros(3))
except AmbiguousDecode as e:
    print("decode(zeros):", e)

print()
print("== bin nesting: 24 determines 8 ==")
# 24 = 3 * 8 with an odd factor, so every 24-bin lies inside one 8-bin
# and a detection correct at 24 bins is automatically correct at 8
mapped = {b: azimuth_to_bin(bin_center(b, 24), 8) for b in range(1, 25)}
print("24-bin -> 8-bin:", mapped)
