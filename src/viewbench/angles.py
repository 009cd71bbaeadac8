"""Azimuth arithmetic, viewpoint binning, and trigonometric pose codecs.

Angles are radians in [0, 2*pi) everywhere inside the library; degrees only
appear at file/CLI boundaries.  Viewpoint bins are 1-based: bin ``v`` of
``n_bins`` is centered at ``2*pi*(v-1)/n_bins`` with half-width
``pi/n_bins``, so bin 1 is symmetric about the canonical front view.

Two regression codecs are provided:

* 2-d: ``[cos t, sin t]`` -- the unit circle.
* 3-d: ``[cos(t - pi/3), cos t, cos(t + pi/3)]`` -- a planar circle of
  radius sqrt(3/2) embedded in R^3, which gives the estimator one redundant
  dimension.

Decoding returns the angle of the closest point on the codec curve.  For
the 3-d codec this is exact: the curve is ``cos(t)*u + sin(t)*v`` with
``u = (1/2, 1, 1/2)`` and ``v = (sqrt(3)/2, 0, -sqrt(3)/2)``, which are
orthogonal and of equal norm sqrt(3/2), so the image is a circle and the
nearest point is the atan2 of the two projection coordinates.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    AmbiguousDecode,
    InvalidAngle,
    InvalidBinning,
    InvalidParameter,
)

TWO_PI = 2.0 * math.pi

# Orthogonal in-plane basis of the 3-d codec circle, |u| = |v| = sqrt(3/2).
_U3 = np.array([0.5, 1.0, 0.5])
_V3 = np.array([math.sqrt(3.0) / 2.0, 0.0, -math.sqrt(3.0) / 2.0])

# Below this projected norm no direction is meaningful.
DEGENERATE_NORM = 1e-12


def canonicalize(raw):
    """Reduce a finite angle in radians into [0, 2*pi).

    Takes a float, or an ndarray reduced elementwise with the same IEEE
    operations (``fmod``, ``+``), so both forms agree bit for bit.
    """
    if isinstance(raw, np.ndarray):
        return _canonicalize_array(raw)
    if not math.isfinite(raw):
        raise InvalidAngle(f"angle must be finite, got {raw!r}")
    value = math.fmod(raw, TWO_PI)
    if value < 0.0:
        value += TWO_PI
    # fmod of a tiny negative can round up to exactly 2*pi
    if value >= TWO_PI:
        value = 0.0
    return value


def _canonicalize_array(raw: np.ndarray) -> np.ndarray:
    value = np.array(raw, dtype=float)
    finite = np.isfinite(value)
    if not finite.all():
        bad = value.flat[int(np.argmin(finite.ravel()))]
        raise InvalidAngle(f"angle must be finite, got {float(bad)!r}")
    np.fmod(value, TWO_PI, out=value)
    np.add(value, TWO_PI, out=value, where=value < 0.0)
    value[value >= TWO_PI] = 0.0
    return value


def azimuth_to_bin(theta, n_bins: int):
    """Index (1-based) of the centered viewpoint bin containing ``theta``.

    Bin ``v`` is centered at ``2*pi*(v-1)/n_bins``; edges fall on odd
    multiples of ``pi/n_bins``.  An angle exactly on an edge belongs to the
    bin above it.  An ndarray of angles gives an int array of bins.
    """
    if n_bins < 2:
        raise InvalidBinning(f"need at least 2 bins, got {n_bins}")
    width = TWO_PI / n_bins
    if isinstance(theta, np.ndarray):
        v = np.floor((canonicalize(theta) + 0.5 * width) / width).astype(int) % n_bins
        return v + 1
    v = int(math.floor((canonicalize(theta) + 0.5 * width) / width)) % n_bins
    return v + 1


def bin_center(index, n_bins: int):
    """Azimuth at the center of bin ``index``.  An int ndarray of bins
    gives an array of centers, each the scalar form's bit for bit."""
    if n_bins < 2:
        raise InvalidBinning(f"need at least 2 bins, got {n_bins}")
    if isinstance(index, np.ndarray):
        bad = (index < 1) | (index > n_bins)
        if bad.any():
            raise InvalidBinning(f"bin index {index[bad][0]} outside 1..{n_bins}")
    elif not 1 <= index <= n_bins:
        raise InvalidBinning(f"bin index {index} outside 1..{n_bins}")
    return canonicalize(TWO_PI * (index - 1) / n_bins)


def flip_azimuth(theta):
    """Azimuth of the horizontally mirrored object: 2*pi - theta, canonical.
    Elementwise on an ndarray."""
    return canonicalize(-canonicalize(theta))


def encode(theta, dim: int) -> np.ndarray:
    """Trigonometric pose embedding of an azimuth.

    ``dim=2`` gives ``[cos t, sin t]``; ``dim=3`` gives
    ``[cos(t - pi/3), cos t, cos(t + pi/3)]``.  An ndarray of ``B`` angles
    gives one embedding per row, shape ``(B, dim)``.
    """
    cos, sin = (np.cos, np.sin) if isinstance(theta, np.ndarray) else (math.cos, math.sin)
    if dim == 2:
        cols = [cos(theta), sin(theta)]
    elif dim == 3:
        cols = [cos(theta - math.pi / 3.0), cos(theta), cos(theta + math.pi / 3.0)]
    else:
        raise InvalidParameter(f"embedding dim must be 2 or 3, got {dim}")
    return np.stack(cols, axis=-1)


def decode(emb: np.ndarray) -> float:
    """Azimuth of the closest point on the codec curve to ``emb``.

    Exact for both codecs: the 2-d curve is the unit circle, and the 3-d
    curve is a circle in the plane spanned by the orthogonal equal-norm
    vectors ``u`` and ``v`` above, so minimizing the Euclidean distance to
    ``cos(t)*u + sin(t)*v`` reduces to ``atan2(<emb, v>, <emb, u>)``.
    Components of ``emb`` orthogonal to the plane do not move the minimum.
    """
    emb = np.asarray(emb, dtype=float)
    if emb.shape == (2,):
        c, s = float(emb[0]), float(emb[1])
        if math.hypot(c, s) < DEGENERATE_NORM:
            raise AmbiguousDecode("2-d embedding norm below 1e-12")
        return canonicalize(math.atan2(s, c))
    if emb.shape == (3,):
        # Projection coordinates in the orthonormal in-plane basis.
        pu = float(emb @ _U3) / math.sqrt(1.5)
        pv = float(emb @ _V3) / math.sqrt(1.5)
        if math.hypot(pu, pv) < DEGENERATE_NORM:
            raise AmbiguousDecode("3-d embedding projects to ~zero in the codec plane")
        return canonicalize(math.atan2(pv, pu))
    raise InvalidParameter(f"embedding must have shape (2,) or (3,), got {emb.shape}")


def circular_difference(a: float, b: float) -> float:
    """Absolute angular difference on the circle, in [0, pi]."""
    d = math.fmod(abs(canonicalize(a) - canonicalize(b)), TWO_PI)
    return min(d, TWO_PI - d)
