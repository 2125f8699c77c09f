"""Summed-area tables: the build and its adjoint.

The table for an H x W source plane is (H+1) x (W+1) with an explicit zero
border in row 0 and column 0, so entry (i, j) holds the sum of all source
pixels strictly above row i and strictly left of column j. Four-corner
differences then give rectangle sums without any index branching, and
bilinear interpolation between table entries extends the lookup to
continuous coordinates. The layer's backward on the table engine builds
one such table per plane from the flipped cotangent; the scalar readers (region sums,
bilinear samples and their derivatives) live in oracle.py, which the tests
check tables against.

Coordinate convention throughout: x is the horizontal (width) axis, y the
vertical (height) axis; arrays are indexed [y, x]. A continuous coordinate
x in [0, W] addresses the table lattice, not source pixels.
"""

from __future__ import annotations

import numpy as np

from .fmap import DimensionError


def build_sat(plane, out=None) -> np.ndarray:
    """Prefix-sum planes (..., H, W) into their (..., H+1, W+1) tables.

    Leading axes (samples, channels) are independent planes, each built
    exactly as on its own. Two passes, rows then columns, always
    accumulating in float64: the four-corner difference subtracts large
    near-equal numbers, so the table itself must not lose precision even
    for float32 sources. out, if given, is a float64 (..., H+1, W+1) array
    or view to build the tables in, and is returned.
    """
    plane = np.asarray(plane)
    if plane.ndim < 2 or min(plane.shape[-2:]) < 1:
        raise DimensionError(f"expected non-empty (..., H, W) planes, got shape {plane.shape}")
    h, w = plane.shape[-2:]
    if out is None:
        sat = np.zeros(plane.shape[:-2] + (h + 1, w + 1), dtype=np.float64)
    else:
        sat = out
        sat[..., 0, :] = 0.0
        sat[..., 1:, 0] = 0.0
    np.cumsum(plane, axis=-1, dtype=np.float64, out=sat[..., 1:, 1:])
    # the column pass: np.cumsum(axis=-2)'s additions in its order, one add per
    # row view over contiguous rows, where cumsum walks down each column
    rows = list(np.moveaxis(sat[..., 1:, 1:], -2, 0))
    for i in range(1, h):
        np.add(rows[i], rows[i - 1], out=rows[i])
    return sat


def sat_backward(grad_sat) -> np.ndarray:
    """Adjoint of build_sat: scatter table cotangents back onto source pixels.

    Entry (i, j) of a table sums source pixels with p < i and q < j, so
    grad_source[p, q] is the suffix sum of grad_sat over i > p, j > q: the
    table's row 0 and column 0 reach no pixel. Leading axes are independent
    tables; the suffix sums run in place on one copy of the (..., H, W) block.
    """
    grad_sat = np.asarray(grad_sat)
    if grad_sat.ndim < 2 or min(grad_sat.shape[-2:]) < 2:
        raise DimensionError(
            f"expected (..., H+1, W+1) table gradients, got shape {grad_sat.shape}"
        )
    grad = np.array(grad_sat[..., 1:, 1:], dtype=np.float64)
    rev = grad[..., ::-1, ::-1]
    np.cumsum(rev, axis=-2, out=rev)
    np.cumsum(rev, axis=-1, out=rev)
    return grad
