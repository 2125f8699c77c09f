import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from satconv.fmap import DimensionError
from satconv.oracle import region_sum, sample_bilinear, sample_bilinear_grad
from satconv.sat import build_sat, sat_backward


def brute_prefix(plane):
    h, w = plane.shape
    out = np.zeros((h + 1, w + 1))
    for i in range(h + 1):
        for j in range(w + 1):
            out[i, j] = sum(plane[p][q] for p in range(i) for q in range(j))
    return out


def test_two_by_two_of_ones():
    sat = build_sat(np.ones((2, 2)))
    assert np.array_equal(sat[1:, 1:], [[1, 2], [2, 4]])
    assert np.all(sat[0] == 0) and np.all(sat[:, 0] == 0)


def test_zero_plane():
    assert np.array_equal(build_sat(np.zeros((3, 4))), np.zeros((4, 5)))


def test_matches_brute_force_prefix(rng):
    plane = rng.normal(size=(7, 5))
    assert np.max(np.abs(build_sat(plane) - brute_prefix(plane))) < 1e-12


def test_build_into_view_of_a_larger_array(rng):
    planes = rng.normal(size=(2, 7, 5))
    big = np.full((2, 10, 9), np.nan)
    view = big[:, 1:9, 2:8]
    assert build_sat(planes[:, ::-1, ::-1], out=view) is view
    assert np.array_equal(view, build_sat(planes[:, ::-1, ::-1]))
    assert np.isnan(big[:, 0]).all() and np.isnan(big[:, :, :2]).all()


def _nested_cumsum(planes):
    h, w = planes.shape[-2:]
    sat = np.zeros(planes.shape[:-2] + (h + 1, w + 1))
    sat[..., 1:, 1:] = np.cumsum(np.cumsum(planes, axis=-1), axis=-2)
    return sat


def test_sums_are_nested_cumsum_byte_for_byte(rng):
    """The table is the row sums, then the column sums, of np.cumsum, in
    their order of additions: on a plane, on a stack of planes, and built
    into a view of a larger zeroed buffer, as the table engine's backward
    builds it."""
    plane = rng.normal(size=(37, 23))
    stack = rng.normal(size=(2, 3, 19, 29))
    for p in (plane, stack):
        assert build_sat(p).tobytes() == _nested_cumsum(p).tobytes()
    big = np.zeros((41, 32))
    view = big[2:40, 3:27]
    build_sat(plane[::-1, ::-1], out=view)
    assert view.tobytes() == _nested_cumsum(plane[::-1, ::-1]).tobytes()


def test_monotone_for_nonnegative(rng):
    sat = build_sat(rng.uniform(size=(6, 6)))
    assert np.all(np.diff(sat, axis=0) >= 0)
    assert np.all(np.diff(sat, axis=1) >= 0)


def test_region_full_image(rng):
    plane = rng.normal(size=(5, 7))
    sat = build_sat(plane)
    assert abs(region_sum(sat, 0, 6, 0, 4) - plane.sum()) < 1e-12


def test_region_single_pixel(rng):
    plane = rng.normal(size=(4, 4))
    sat = build_sat(plane)
    for y in range(4):
        for x in range(4):
            assert abs(region_sum(sat, x, x, y, y) - plane[y, x]) < 1e-12


def test_region_random_rectangles(rng):
    plane = rng.normal(size=(9, 9))
    sat = build_sat(plane)
    for _ in range(300):
        x0, x1 = sorted(int(v) for v in rng.integers(-3, 12, 2))
        y0, y1 = sorted(int(v) for v in rng.integers(-3, 12, 2))
        want = plane[max(y0, 0) : max(y1 + 1, 0), max(x0, 0) : max(x1 + 1, 0)].sum()
        assert abs(region_sum(sat, x0, x1, y0, y1) - want) < 1e-9


def test_region_exhaustive_on_integer_image(rng):
    """Every rectangle on a 12x12 integer-valued image sums exactly."""
    plane = rng.integers(-9, 10, size=(12, 12)).astype(float)
    sat = build_sat(plane)
    for x0 in range(12):
        for x1 in range(x0, 12):
            want_cols = plane[:, x0 : x1 + 1]
            for y0 in range(12):
                for y1 in range(y0, 12):
                    want = want_cols[y0 : y1 + 1].sum()
                    assert region_sum(sat, x0, x1, y0, y1) == want


def test_region_clamping_is_zero_padding(rng):
    plane = rng.normal(size=(4, 5))
    sat = build_sat(plane)
    # rectangle hanging off every edge still sums only the overlap
    assert abs(region_sum(sat, -3, 10, -2, 7) - plane.sum()) < 1e-12
    assert region_sum(sat, -5, -2, 0, 3) == 0.0
    assert region_sum(sat, 0, 4, 9, 12) == 0.0


def eq3_reference(sat, x, y):
    """Independent term-by-term evaluation of the interpolation formula."""
    a = x - math.floor(x)
    b = y - math.floor(y)
    xf, xc = math.floor(x), math.ceil(x)
    yf, yc = math.floor(y), math.ceil(y)
    return (
        (1 - a) * (1 - b) * sat[yf, xf]
        + a * (1 - b) * sat[yf, xc]
        + (1 - a) * b * sat[yc, xf]
        + a * b * sat[yc, xc]
    )


def test_sample_at_integer_coordinates(rng):
    sat = build_sat(rng.normal(size=(5, 6)))
    for y in range(6):
        for x in range(7):
            assert sample_bilinear(sat, x, y) == sat[y, x]


def test_sample_midpoint_is_mean(rng):
    sat = build_sat(rng.normal(size=(4, 4)))
    got = sample_bilinear(sat, 1.5, 2.5)
    want = (sat[2, 1] + sat[2, 2] + sat[3, 1] + sat[3, 2]) / 4
    assert abs(got - want) < 1e-12


def test_sample_matches_reference_formula(rng):
    sat = build_sat(rng.normal(size=(6, 5)))
    for _ in range(100):
        x = float(rng.uniform(0, 5))
        y = float(rng.uniform(0, 6))
        assert abs(sample_bilinear(sat, x, y) - eq3_reference(sat, x, y)) < 1e-12


def test_sample_continuous_across_cell_boundaries(rng):
    sat = build_sat(rng.normal(size=(6, 6)))
    eps = 1e-12
    for x in (1.0, 2.0, 5.0):
        lo = sample_bilinear(sat, x - eps, 2.3)
        hi = sample_bilinear(sat, x + eps, 2.3)
        assert abs(lo - hi) < 1e-9


def test_sample_exact_for_bilinear_table():
    h, w = 5, 6
    ys, xs = np.mgrid[0 : h + 1, 0 : w + 1]
    table = 2.0 + 0.5 * xs - 1.25 * ys + 0.75 * xs * ys
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = float(rng.uniform(0, w))
        y = float(rng.uniform(0, h))
        want = 2.0 + 0.5 * x - 1.25 * y + 0.75 * x * y
        assert abs(sample_bilinear(table, x, y) - want) < 1e-9


def test_grad_constant_slope_along_rows():
    # source constant along each row makes the table linear in x inside a row band
    plane = np.tile(np.array([[3.0]]), (4, 6))
    sat = build_sat(plane)
    for x in (0.25, 1.5, 3.9):
        d_dx, _, _ = sample_bilinear_grad(sat, x, 2.5)
        assert abs(d_dx - 3.0 * 2.5) < 1e-9  # slope = row value times covered rows


def test_grad_corner_weights_at_lattice(rng):
    sat = build_sat(rng.normal(size=(4, 4)))
    _, _, weights = sample_bilinear_grad(sat, 2.0, 1.0)
    assert weights == (1.0, 0.0, 0.0, 0.0)


def test_grad_matches_finite_differences(rng):
    sat = build_sat(rng.normal(size=(7, 8)))
    h = 1e-6
    for _ in range(50):
        x = float(rng.uniform(0.05, 7.95))
        y = float(rng.uniform(0.05, 6.95))
        if min(x % 1, 1 - x % 1) < 1e-4 or min(y % 1, 1 - y % 1) < 1e-4:
            continue
        d_dx, d_dy, _ = sample_bilinear_grad(sat, x, y)
        fdx = (sample_bilinear(sat, x + h, y) - sample_bilinear(sat, x - h, y)) / (2 * h)
        fdy = (sample_bilinear(sat, x, y + h) - sample_bilinear(sat, x, y - h)) / (2 * h)
        assert abs(d_dx - fdx) / max(abs(fdx), 1.0) < 1e-6
        assert abs(d_dy - fdy) / max(abs(fdy), 1.0) < 1e-6


def test_backward_corner_delta_gives_all_ones():
    g = np.zeros((5, 5))
    g[-1, -1] = 1.0
    assert np.array_equal(sat_backward(g), np.ones((4, 4)))


def test_backward_delta_at_one_one():
    g = np.zeros((4, 5))
    g[1, 1] = 1.0
    want = np.zeros((3, 4))
    want[0, 0] = 1.0
    assert np.array_equal(sat_backward(g), want)


def test_backward_matches_explicit_jacobian(rng):
    """Jacobian of build_sat assembled column by column on a 5x4 plane."""
    h, w = 5, 4
    grad_sat = rng.normal(size=(h + 1, w + 1))
    jac_product = np.zeros((h, w))
    for p in range(h):
        for q in range(w):
            basis = np.zeros((h, w))
            basis[p, q] = 1.0
            jac_product[p, q] = np.sum(build_sat(basis) * grad_sat)
    assert np.max(np.abs(sat_backward(grad_sat) - jac_product)) < 1e-12


@given(
    plane=npst.arrays(np.float64, (4, 6), elements=st.floats(-10, 10)),
    g=npst.arrays(np.float64, (5, 7), elements=st.floats(-10, 10)),
)
@settings(max_examples=50, deadline=None)
def test_adjoint_identity(plane, g):
    lhs = float(np.sum(sat_backward(g) * plane))
    rhs = float(np.sum(g * build_sat(plane)))
    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)


def test_shape_errors():
    with pytest.raises(DimensionError):
        build_sat(np.zeros((0, 3)))
    with pytest.raises(DimensionError):
        sat_backward(np.zeros((1, 3)))
