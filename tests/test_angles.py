"""Angle arithmetic, binning, and codec tests.

The decode oracle is a brute-force nearest-point search over a dense angle
grid: both codec curves have constant squared norm (1 for 2-d, 3/2 for 3-d),
so the closest curve point maximizes the dot product with the query
embedding.  The grid has 10^6 points, and decode must agree within one grid
step.
"""

import math

import numpy as np
import pytest

from viewbench.angles import (
    TWO_PI,
    azimuth_to_bin,
    bin_center,
    canonicalize,
    circular_difference,
    decode,
    encode,
    flip_azimuth,
)
from viewbench.errors import (
    AmbiguousDecode,
    InvalidAngle,
    InvalidBinning,
    InvalidParameter,
)

GRID_N = 1_000_000
GRID_STEP = TWO_PI / GRID_N


def _grid(dim):
    t = np.arange(GRID_N) * GRID_STEP
    if dim == 2:
        return t, np.stack([np.cos(t), np.sin(t)], axis=1)
    return t, np.stack(
        [np.cos(t - np.pi / 3), np.cos(t), np.cos(t + np.pi / 3)], axis=1
    )


def _oracle_decode(emb, grid_t, grid_f):
    return float(grid_t[np.argmax(grid_f @ emb)])


class TestCanonicalize:
    def test_identity(self):
        assert canonicalize(0.0) == 0.0

    def test_period(self):
        assert canonicalize(TWO_PI) == 0.0

    def test_negative(self):
        assert canonicalize(-math.pi / 2) == pytest.approx(3 * math.pi / 2, abs=1e-15)

    def test_range_over_many_values(self):
        rng = np.random.default_rng(0)
        for raw in rng.uniform(-1e6, 1e6, size=2000):
            v = canonicalize(float(raw))
            assert 0.0 <= v < TWO_PI

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidAngle):
            canonicalize(bad)


class TestBinning:
    def test_zero_is_bin_one(self):
        assert azimuth_to_bin(0.0, 24) == 1

    def test_pi_in_four_bins(self):
        assert azimuth_to_bin(math.pi, 4) == 3

    def test_edge_at_seven_and_a_half_degrees(self):
        assert azimuth_to_bin(math.radians(7.49), 24) == 1
        assert azimuth_to_bin(math.radians(7.51), 24) == 2

    def test_exact_edge_goes_up(self):
        # the edge itself belongs to the bin above it
        assert azimuth_to_bin(math.radians(7.5), 24) == 2

    def test_too_few_bins(self):
        with pytest.raises(InvalidBinning):
            azimuth_to_bin(0.0, 1)

    def test_bin_center_round_trip(self):
        for n_bins in (2, 4, 8, 16, 24, 360):
            for v in range(1, n_bins + 1):
                assert azimuth_to_bin(bin_center(v, n_bins), n_bins) == v

    def test_bin_center_array_form_is_the_scalar_form(self):
        for n_bins in range(2, 401):
            bins = np.arange(1, n_bins + 1).reshape(-1, 1)
            centers = bin_center(bins, n_bins)
            assert centers.shape == bins.shape and centers.dtype == np.float64
            expected = [bin_center(v, n_bins) for v in range(1, n_bins + 1)]
            assert [c.hex() for c in centers[:, 0].tolist()] == [c.hex() for c in expected]

    @pytest.mark.parametrize("bad", [0, 9, -1])
    def test_bin_center_out_of_range(self, bad):
        with pytest.raises(InvalidBinning, match=f"bin index {bad} outside 1..8"):
            bin_center(bad, 8)
        with pytest.raises(InvalidBinning, match=f"bin index {bad} outside 1..8"):
            bin_center(np.array([1, bad, 2]), 8)

    def test_nesting_24_determines_8(self):
        # every 8-bin edge is also a 24-bin edge, so the 24-bin index fixes
        # the 8-bin index; check the map is a function over a dense sweep.
        # The shared edges sit at odd sixteenths of the circle, so an odd
        # point count keeps the sweep off the edges themselves, where the
        # two floor computations may disagree by one ulp.
        seen = {}
        for theta in np.linspace(0.0, TWO_PI, 99_991, endpoint=False):
            fine = azimuth_to_bin(float(theta), 24)
            coarse = azimuth_to_bin(float(theta), 8)
            if fine in seen:
                assert seen[fine] == coarse
            else:
                seen[fine] = coarse
        assert len(seen) == 24


class TestFlip:
    def test_fixed_points(self):
        assert flip_azimuth(0.0) == 0.0
        assert flip_azimuth(math.pi) == pytest.approx(math.pi, abs=1e-15)

    def test_reflection(self):
        assert flip_azimuth(math.pi / 2) == pytest.approx(3 * math.pi / 2, abs=1e-15)

    def test_involution(self):
        rng = np.random.default_rng(1)
        for theta in rng.uniform(0, TWO_PI, size=2000):
            back = flip_azimuth(flip_azimuth(float(theta)))
            assert circular_difference(back, float(theta)) < 1e-12

    def test_mirror_bin_consistency(self):
        # away from bin edges, flipping the angle lands in the mirrored bin:
        # bin 1 maps onto itself, bin v onto bin n_bins - v + 2
        for n_bins in (4, 8, 24):
            for v in range(1, n_bins + 1):
                theta = bin_center(v, n_bins)
                mirrored = 1 if v == 1 else n_bins - v + 2
                assert azimuth_to_bin(flip_azimuth(theta), n_bins) == mirrored


class TestEncode:
    def test_2d_at_zero(self):
        np.testing.assert_allclose(encode(0.0, 2), [1.0, 0.0], atol=1e-15)

    def test_3d_at_zero(self):
        np.testing.assert_allclose(encode(0.0, 3), [0.5, 1.0, 0.5], atol=1e-15)

    def test_3d_at_quarter_turn(self):
        np.testing.assert_allclose(
            encode(math.pi / 2, 3),
            [math.sqrt(3) / 2, 0.0, -math.sqrt(3) / 2],
            atol=1e-15,
        )

    def test_norms(self):
        rng = np.random.default_rng(2)
        for theta in rng.uniform(0, TWO_PI, size=500):
            assert np.linalg.norm(encode(float(theta), 2)) == pytest.approx(
                1.0, abs=1e-12
            )
            assert np.linalg.norm(encode(float(theta), 3)) == pytest.approx(
                math.sqrt(1.5), abs=1e-12
            )

    def test_3d_linear_dependence(self):
        rng = np.random.default_rng(3)
        for theta in rng.uniform(0, TWO_PI, size=500):
            e = encode(float(theta), 3)
            assert abs(e[0] + e[2] - e[1]) < 1e-12

    def test_bad_dim(self):
        with pytest.raises(InvalidParameter):
            encode(0.0, 4)


class TestDecode:
    def test_2d_quarter_turn(self):
        assert decode(np.array([0.0, 1.0])) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_3d_front(self):
        assert decode(np.array([0.5, 1.0, 0.5])) == pytest.approx(0.0, abs=1e-15)

    def test_round_trip_10k(self):
        rng = np.random.default_rng(4)
        for dim in (2, 3):
            thetas = rng.uniform(0, TWO_PI, size=10_000)
            worst = max(
                circular_difference(decode(encode(float(t), dim)), float(t))
                for t in thetas
            )
            assert worst < 1e-9

    def test_brute_force_oracle_perturbed(self):
        rng = np.random.default_rng(5)
        for dim in (2, 3):
            grid_t, grid_f = _grid(dim)
            for _ in range(200):
                theta = float(rng.uniform(0, TWO_PI))
                emb = encode(theta, dim) + rng.normal(0, 0.3, size=dim)
                try:
                    got = decode(emb)
                except AmbiguousDecode:
                    continue
                want = _oracle_decode(emb, grid_t, grid_f)
                assert circular_difference(got, want) <= GRID_STEP + 1e-12

    def test_oracle_specific_3d_point(self):
        emb = np.array([0.6, 1.1, 0.4])
        grid_t, grid_f = _grid(3)
        want = _oracle_decode(emb, grid_t, grid_f)
        assert circular_difference(decode(emb), want) <= GRID_STEP + 1e-12

    def test_out_of_plane_component_ignored(self):
        # (1, -1, 1) is orthogonal to both in-plane basis vectors
        rng = np.random.default_rng(6)
        normal = np.array([1.0, -1.0, 1.0])
        for theta in rng.uniform(0, TWO_PI, size=100):
            e = encode(float(theta), 3)
            assert decode(e + 0.7 * normal) == pytest.approx(decode(e), abs=1e-12)

    def test_degenerate_2d(self):
        with pytest.raises(AmbiguousDecode):
            decode(np.zeros(2))

    def test_degenerate_3d_zero(self):
        with pytest.raises(AmbiguousDecode):
            decode(np.zeros(3))

    def test_degenerate_3d_out_of_plane(self):
        with pytest.raises(AmbiguousDecode):
            decode(np.array([1.0, -1.0, 1.0]))

    def test_bad_shape(self):
        with pytest.raises(InvalidParameter):
            decode(np.zeros(4))


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _awkward_angles():
    """Signed zeros, tiny negatives, 2*pi and its neighbours, multiples of
    the period, and every bin edge of several binnings with both of its
    neighbouring floats."""
    edges = [TWO_PI * (v - 0.5) / n for n in (2, 3, 4, 8, 16, 24, 360) for v in range(1, n + 1)]
    special = [
        0.0, -0.0, -1e-300, -5e-324, 5e-324, -1e-17, -1e-16, math.pi, -math.pi,
        TWO_PI, -TWO_PI, 3 * TWO_PI, -7 * TWO_PI, 1e6, -1e6,
    ]
    near = [np.nextafter(a, d) for a in edges + special for d in (-np.inf, np.inf)]
    return np.array(special + edges + near + [np.nextafter(TWO_PI, 0.0)])


def _random_angles():
    return np.random.default_rng(2024).uniform(-3 * TWO_PI, 3 * TWO_PI, 100_000)


class TestArrayForms:
    """The ndarray forms agree with the scalar forms bit for bit.

    canonicalize and azimuth_to_bin use exact IEEE operations in both
    forms.  encode compares NumPy's cos/sin with the C library's
    ``math.cos``/``math.sin``; their agreement depends on the machine, and
    the 10^5 random azimuths pin it for the machine the tests run on.
    """

    @pytest.mark.parametrize("angles", [_awkward_angles, _random_angles])
    def test_canonicalize(self, angles):
        theta = angles()
        got = canonicalize(theta)
        assert isinstance(got, np.ndarray) and got.shape == theta.shape
        assert np.array_equal(_bits(got), _bits([canonicalize(float(t)) for t in theta]))

    @pytest.mark.parametrize("angles", [_awkward_angles, _random_angles])
    def test_flip_azimuth(self, angles):
        theta = angles()
        want = [flip_azimuth(float(t)) for t in theta]
        assert np.array_equal(_bits(flip_azimuth(theta)), _bits(want))

    @pytest.mark.parametrize("n_bins", [2, 3, 4, 8, 16, 24, 360])
    def test_azimuth_to_bin_awkward(self, n_bins):
        theta = _awkward_angles()
        want = [azimuth_to_bin(float(t), n_bins) for t in theta]
        got = azimuth_to_bin(theta, n_bins)
        assert got.dtype.kind == "i"
        assert got.tolist() == want

    @pytest.mark.parametrize("n_bins", [7, 24, 360])
    def test_azimuth_to_bin_random(self, n_bins):
        theta = _random_angles()
        want = [azimuth_to_bin(float(t), n_bins) for t in theta]
        assert azimuth_to_bin(theta, n_bins).tolist() == want

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("angles", [_awkward_angles, _random_angles])
    def test_encode(self, dim, angles):
        theta = angles()
        got = encode(theta, dim)
        assert got.shape == (theta.size, dim)
        want = np.stack([encode(float(t), dim) for t in theta])
        assert np.array_equal(_bits(got), _bits(want))

    def test_zero_dim_and_integer_arrays(self):
        assert _bits(canonicalize(np.array(-0.0))) == _bits(-0.0)
        assert azimuth_to_bin(np.array(math.pi), 4) == 3
        assert np.array_equal(canonicalize(np.array([-1, 7])), [canonicalize(-1), canonicalize(7)])

    def test_canonical_input_copied_unchanged(self):
        theta = np.array([-0.0, 0.0, 5e-324, math.pi, np.nextafter(TWO_PI, 0.0)])
        got = canonicalize(theta)
        assert got is not theta and not np.shares_memory(got, theta)
        assert np.array_equal(_bits(got), _bits(theta))
        assert np.array_equal(_bits(got), _bits([canonicalize(float(t)) for t in theta]))

    def test_empty(self):
        assert canonicalize(np.empty(0)).shape == (0,)
        assert azimuth_to_bin(np.empty(0), 24).shape == (0,)
        assert encode(np.empty(0), 3).shape == (0, 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidAngle, match=repr(bad)):
            canonicalize(np.array([0.5, bad, 1.0]))
        with pytest.raises(InvalidAngle):
            azimuth_to_bin(np.array([bad]), 24)

    def test_bad_dim(self):
        with pytest.raises(InvalidParameter):
            encode(np.zeros(3), 4)
