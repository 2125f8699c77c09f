"""Heatmap targets, keypoint decoding, and the regression loss."""

from __future__ import annotations

import numpy as np

from .fmap import DimensionError


def gaussian_target(peak, shape, sigma: float = 2.0) -> np.ndarray:
    """Unnormalized Gaussian bump: value 1 at the peak, std sigma in pixels."""
    x, y = float(peak[0]), float(peak[1])
    h, w = shape
    if not (0.0 <= x <= w - 1 and 0.0 <= y <= h - 1):
        raise ValueError(f"peak ({x}, {y}) outside {h}x{w} plane")
    xs = np.arange(w, dtype=np.float64)
    ys = np.arange(h, dtype=np.float64)
    dx2 = (xs - x) ** 2
    dy2 = (ys - y) ** 2
    return np.exp(-(dy2[:, None] + dx2[None, :]) / (2.0 * sigma * sigma))


def decode_keypoint(plane):
    """Argmax location nudged a quarter of the way toward the runner-up.

    Ties resolve to the first occurrence in row-major scan order. Returns
    continuous (x, y).
    """
    plane = np.asarray(plane)
    if plane.size < 2:
        raise DimensionError("plane needs at least 2 pixels")
    flat = plane.ravel()
    first = int(np.argmax(flat))
    rest = flat.copy()
    rest[first] = -np.inf
    second = int(np.argmax(rest))
    w = plane.shape[1]
    fy, fx = divmod(first, w)
    sy, sx = divmod(second, w)
    return (fx + 0.25 * (sx - fx), fy + 0.25 * (sy - fy))


def mse_loss(pred, target):
    """Mean squared error and its gradient w.r.t. pred."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DimensionError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff * diff))
    diff *= 2.0 / diff.size  # the gradient, in place of a third full-size array
    return loss, diff
