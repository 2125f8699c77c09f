import math

import numpy as np
import pytest

from satconv.fmap import DimensionError
from satconv.heatmap import decode_keypoint, gaussian_target, mse_loss
from satconv.oracle import finite_diff


def test_peak_value_one_at_integer_peak():
    plane = gaussian_target((10, 6), (16, 20), sigma=2.0)
    assert plane[6, 10] == 1.0
    assert plane.max() == 1.0


def test_value_at_distance_two():
    plane = gaussian_target((8, 8), (17, 17), sigma=2.0)
    assert plane[8, 10] == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert plane[10, 8] == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_total_mass_matches_direct_summation():
    plane = gaussian_target((31.5, 31.5), (64, 64), sigma=2.0)
    direct = 0.0
    for i in range(64):
        for j in range(64):
            direct += math.exp(-((j - 31.5) ** 2 + (i - 31.5) ** 2) / 8.0)
    assert abs(plane.sum() - direct) < 1e-9


def test_out_of_bounds_peak_rejected():
    with pytest.raises(ValueError):
        gaussian_target((20, 3), (8, 8))


def test_decode_quarter_shift():
    plane = np.zeros((21, 21))
    plane[10, 10] = 1.0
    plane[10, 14] = 0.5
    assert decode_keypoint(plane) == (11.0, 10.0)


def test_decode_tie_break_row_major():
    assert decode_keypoint(np.ones((4, 5))) == (0.25, 0.0)


def test_decode_gaussian_peak():
    plane = gaussian_target((20, 30), (40, 40), sigma=2.0)
    x, y = decode_keypoint(plane)
    assert (x - 20) ** 2 + (y - 30) ** 2 < 0.25


def test_decode_needs_two_pixels():
    with pytest.raises(DimensionError):
        decode_keypoint(np.ones((1, 1)))


def test_mse_zero_on_equal(rng):
    x = rng.normal(size=(2, 4, 4))
    loss, grad = mse_loss(x, x)
    assert loss == 0.0 and not grad.any()


def test_mse_constant_offset(rng):
    x = rng.normal(size=(1, 5, 5))
    loss, _ = mse_loss(x + 0.3, x)
    assert loss == pytest.approx(0.09, abs=1e-12)


def test_mse_grad_matches_finite_diff(rng):
    pred = rng.normal(size=(1, 3, 3))
    target = rng.normal(size=(1, 3, 3))
    _, grad = mse_loss(pred, target)
    for idx in [(0, 0, 0), (0, 1, 2), (0, 2, 1)]:
        def f(t):
            p = pred.copy()
            p[idx] = t
            return mse_loss(p, target)[0]
        assert abs(grad[idx] - finite_diff(f, pred[idx], 1e-6)) < 1e-8


def test_mse_grad_is_scaled_difference(rng):
    pred = rng.normal(size=(2, 3, 8, 8))
    target = rng.normal(size=pred.shape)
    loss, grad = mse_loss(pred, target)
    diff = pred - target
    assert loss == float(np.mean(diff * diff))
    assert np.array_equal(grad, (2.0 / diff.size) * diff)


def test_mse_shape_mismatch(rng):
    with pytest.raises(DimensionError):
        mse_loss(rng.normal(size=(1, 2, 2)), rng.normal(size=(1, 3, 2)))
