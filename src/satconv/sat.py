"""Summed-area tables with sub-pixel sampling.

The table for an H x W source plane is (H+1) x (W+1) with an explicit zero
border in row 0 and column 0, so entry (i, j) holds the sum of all source
pixels strictly above row i and strictly left of column j. Four-corner
differences then give rectangle sums without any index branching, and
bilinear interpolation between table entries extends the lookup to
continuous coordinates.

Coordinate convention throughout: x is the horizontal (width) axis, y the
vertical (height) axis; arrays are indexed [y, x]. A continuous coordinate
x in [0, W] addresses the table lattice, not source pixels.
"""

from __future__ import annotations

import math

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
    np.cumsum(sat[..., 1:, 1:], axis=-2, out=sat[..., 1:, 1:])
    return sat


def region_sum(sat, x_lo: int, x_hi: int, y_lo: int, y_hi: int) -> float:
    """Sum of source pixels in the closed rectangle [x_lo, x_hi] x [y_lo, y_hi].

    Corner indices are clamped to the table, which is exactly zero-padding
    semantics: the result is the sum over rectangle intersect image.
    """
    h = sat.shape[0] - 1
    w = sat.shape[1] - 1
    x0 = min(max(x_lo, 0), w)
    x1 = min(max(x_hi + 1, 0), w)
    y0 = min(max(y_lo, 0), h)
    y1 = min(max(y_hi + 1, 0), h)
    return float(sat[y1, x1] - sat[y0, x1] - sat[y1, x0] + sat[y0, x0])


def _cell(coord: float, n: int):
    """Clamp a continuous lattice coordinate to [0, n] and resolve its cell.

    Returns (i0, i1, frac) with value = (1-frac)*S[i0] + frac*S[i1]. The cell
    is right-sided at interior lattice points (i0 = floor(coord)); where the
    clamp is active both taps coincide, so the coordinate derivative there is
    zero by construction.
    """
    c = min(max(float(coord), 0.0), float(n))
    i0 = math.floor(c)
    i1 = min(i0 + 1, n)
    return i0, i1, c - i0


def sample_bilinear(sat, x: float, y: float) -> float:
    """Table value at continuous (x, y), bilinearly interpolated."""
    h = sat.shape[0] - 1
    w = sat.shape[1] - 1
    x0, x1, a = _cell(x, w)
    y0, y1, b = _cell(y, h)
    return float(
        (1 - a) * (1 - b) * sat[y0, x0]
        + a * (1 - b) * sat[y0, x1]
        + (1 - a) * b * sat[y1, x0]
        + a * b * sat[y1, x1]
    )


def sample_bilinear_grad(sat, x: float, y: float):
    """Coordinate derivatives of the interpolated sample, plus corner weights.

    d_dx = (1-b)*(S[y0,x1] - S[y0,x0]) + b*(S[y1,x1] - S[y1,x0]) and the
    symmetric expression for d_dy; corner weights are returned in the order
    (floor,floor), (ceil,floor), (floor,ceil), (ceil,ceil).
    """
    h = sat.shape[0] - 1
    w = sat.shape[1] - 1
    x0, x1, a = _cell(x, w)
    y0, y1, b = _cell(y, h)
    s00 = float(sat[y0, x0])
    s10 = float(sat[y0, x1])
    s01 = float(sat[y1, x0])
    s11 = float(sat[y1, x1])
    d_dx = (1 - b) * (s10 - s00) + b * (s11 - s01)
    d_dy = (1 - a) * (s01 - s00) + a * (s11 - s10)
    weights = ((1 - a) * (1 - b), a * (1 - b), (1 - a) * b, a * b)
    return d_dx, d_dy, weights


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
