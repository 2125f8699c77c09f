import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satconv.boxes import N_SPLITS, N_WEIGHTS, BoxParams, BoxVariant, box_arrays, init_params
from satconv.oracle import (
    DenseKernel,
    coverage_profile,
    effective_kernel,
    effective_kernels,
    finite_diff,
    naive_conv,
)


def conv_flipped_loops(plane, kernel):
    """Second independent implementation: kernel-major loop nesting,
    scattering contributions instead of gathering them."""
    h, w = plane.shape
    kh, kw = kernel.size
    ay, ax = kernel.anchor
    d = kernel.dilation
    out = np.zeros((h, w))
    for u in range(kh):
        for v in range(kw):
            wt = kernel.weights[u, v]
            for sy in range(h):
                y = sy - (u - ay) * d
                if not 0 <= y < h:
                    continue
                for sx in range(w):
                    x = sx - (v - ax) * d
                    if 0 <= x < w:
                        out[y, x] += wt * plane[sy, sx]
    return out


def test_identity_kernel(rng):
    x = rng.normal(size=(5, 6))
    k = np.zeros((3, 3))
    k[1, 1] = 1.0
    assert np.array_equal(naive_conv(x, DenseKernel(k)), x)


def test_ones_kernel_on_constant_interior():
    out = naive_conv(np.full((6, 6), 2.0), DenseKernel(np.ones((3, 3))))
    assert np.allclose(out[1:-1, 1:-1], 18.0)
    assert out[0, 0] == 8.0  # corner sees only 4 pixels


def test_matches_flipped_loop_implementation(rng):
    x = rng.normal(size=(5, 5))
    for d in (1, 2):
        kern = DenseKernel(rng.normal(size=(3, 3)), dilation=d)
        assert np.max(np.abs(naive_conv(x, kern) - conv_flipped_loops(x, kern))) < 1e-12


def test_receptive_extent():
    assert DenseKernel(np.ones((4, 4)), dilation=4).receptive_extent() == 13
    assert DenseKernel(np.ones((3, 3))).receptive_extent() == 3
    assert DenseKernel(np.ones((4, 4)), dilation=4).multadds_per_pixel() == 16


def test_effective_kernel_integer_box():
    p = BoxParams(-0.5, 0.25, -0.25, 0.5, 9)  # offsets -2..1 in x, -1..2 in y
    kern = effective_kernel(p).weights
    r = 4
    want = np.zeros((10, 10))
    want[r - 1 : r + 3, r - 2 : r + 2] = 1.0
    assert np.array_equal(kern, want)


def test_effective_kernel_fractional_right_edge():
    # high x edge at offset 2.5: the column at offset 3 weighs 0.5
    k = 9
    p = BoxParams(0.0, 2.5 / 4.0, 0.0, 0.0, k)
    kern = effective_kernel(p).weights
    r = 4
    assert kern[r, r + 3] == pytest.approx(0.5)
    assert np.all(kern[r, r : r + 3] == 1.0)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_effective_kernel_entries_and_mass(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    variant = data.draw(st.sampled_from(list(BoxVariant)))
    p = init_params(9, variant, rng)
    kern = effective_kernel(p).weights
    assert np.all(kern >= -1e-12) and np.all(kern <= 1.0 + 1e-12)
    (xl, xh, yl, yh) = (p.theta_xl * 4, p.theta_xh * 4, p.theta_yl * 4, p.theta_yh * 4)
    area = (xh - xl + 1) * (yh - yl + 1)
    assert kern.sum() == pytest.approx(area, rel=1e-12, abs=1e-12)


def _one_box_kernel(p):
    """The closed form for one box, without a channel axis: each sub-box's
    weight times the outer product of its coverage profiles, in sub-box order."""
    k, r = p.max_kernel, (p.max_kernel - 1) // 2
    offsets = np.arange(-r, r + 2)
    xs = [p.theta_xl * r, *(s * r for s in p.split_theta[:1] if p.variant != BoxVariant.SPLIT_H),
          p.theta_xh * r + 1.0]
    ys = [p.theta_yl * r, *(s * r for s in p.split_theta[-1:] if p.variant != BoxVariant.SPLIT_V),
          p.theta_yh * r + 1.0]
    subs = {BoxVariant.SINGLE: [(0, 1, 0, 1)],
            BoxVariant.SPLIT_H: [(0, 1, 0, 1), (0, 1, 1, 2)],
            BoxVariant.SPLIT_V: [(0, 1, 0, 1), (1, 2, 0, 1)],
            BoxVariant.SPLIT_4: [(0, 1, 0, 1), (1, 2, 0, 1), (0, 1, 1, 2), (1, 2, 1, 2)]}
    kern = np.zeros((k + 1, k + 1))
    for (ixl, ixh, iyl, iyh), wgt in zip(subs[p.variant], p.split_weights):
        px = coverage_profile(xs[ixl], xs[ixh], offsets)
        py = coverage_profile(ys[iyl], ys[iyh], offsets)
        kern += wgt * np.outer(py, px)
    return kern


@pytest.mark.parametrize("k", [3, 9, 41])
@pytest.mark.parametrize("variant", list(BoxVariant))
def test_effective_kernels_rows_are_effective_kernel(rng, variant, k):
    """One call over a layer's arrays gives every box's kernel bit for bit:
    unequal weights, and a box with edges on the window border."""
    border = BoxParams(-1.0, 1.0, -1.0, 0.4, k, variant, (0.1,) * N_SPLITS[variant],
                       (1.0,) * N_WEIGHTS[variant])
    boxes = [BoxParams(*p.thetas, k, variant, p.split_theta,
                       tuple(rng.uniform(0.5, 1.5, size=N_WEIGHTS[variant])))
             for p in [init_params(k, variant, rng) for _ in range(3)] + [border]]
    kernels = effective_kernels(*box_arrays(boxes, variant), k, variant)
    assert kernels.shape == (4, k + 1, k + 1)
    for kern, p in zip(kernels, boxes):
        assert np.array_equal(kern, effective_kernel(p).weights)
        assert np.array_equal(kern, _one_box_kernel(p))


def test_coverage_profile_basics():
    q = np.arange(-2, 4)
    prof = coverage_profile(-0.5, 2.25, q)
    assert prof.tolist() == [0.0, 0.5, 1.0, 1.0, 0.25, 0.0]
    assert prof.sum() == pytest.approx(2.25 - (-0.5))


def test_finite_diff_quadratic():
    assert finite_diff(lambda t: t * t, 3.0, 1e-5) == pytest.approx(6.0, abs=1e-9)
    assert finite_diff(lambda t: 4.2, 1.0, 1e-5) == 0.0
