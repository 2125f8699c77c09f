"""Slow, obviously-correct baselines used by tests and benchmarks.

Nothing here is optimized, on purpose: the test strategy leans on these
being easy to audit. naive_conv is a literal quadruple loop over plain
Python floats. tap_conv is the benchmark's O(k^2) dense baseline, one
multiply-add over the whole stack per kernel tap, the cost the paper sets
box filters against. It lives here, with its own zero padding and nothing
imported from dense.py, so that dense.py keeps one route and `satconv
bench` (acceptance criterion 5) times the taps at every kernel size.
dense.py's matrix products cannot stand in: from 8x8 to 22x22 kernels on a
256^2 plane, one BLAS thread, their time grows 3.5-4.3x against the taps'
7.2-8.8x, and criterion 5 asks the baseline for at least 4x.
effective_kernels expands a layer's sub-pixel boxes, read from its theta,
split and weight arrays, into the dense weight arrays they are equivalent
to (effective_kernel does one BoxParams), built from 1-D coverage profiles
with a closed form that likewise never touches the table code it is used
to check.
region_sum, sample_bilinear and sample_bilinear_grad read one value of a
summed-area table (sat.build_sat) at a time, with the table's
zero-padding convention spelled out by clamping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import BoxParams, box_arrays, box_geometry


@dataclass(frozen=True)
class DenseKernel:
    """Explicit dense weights; dilation > 1 spaces the taps on the input lattice."""

    weights: np.ndarray
    dilation: int = 1

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 2:
            raise ValueError(f"kernel must be rank 2, got shape {w.shape}")
        if self.dilation < 1:
            raise ValueError(f"dilation must be >= 1, got {self.dilation}")
        object.__setattr__(self, "weights", w)

    @property
    def size(self):
        return self.weights.shape

    @property
    def anchor(self):
        # output pixel sits at kernel index (size-1)//2 on each axis
        return (self.size[0] - 1) // 2, (self.size[1] - 1) // 2

    def receptive_extent(self) -> int:
        """Pixels spanned along one axis: (size - 1) * dilation + 1."""
        return (max(self.size) - 1) * self.dilation + 1

    def multadds_per_pixel(self) -> int:
        return self.size[0] * self.size[1]


def naive_conv(plane, kernel: DenseKernel) -> np.ndarray:
    """Direct quadruple loop with zero padding and a centered window."""
    plane = np.asarray(plane, dtype=np.float64)
    h, w = plane.shape
    kh, kw = kernel.size
    ay, ax = kernel.anchor
    d = kernel.dilation
    src = plane.tolist()
    wts = kernel.weights.tolist()
    out = [[0.0] * w for _ in range(h)]
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for u in range(kh):
                sy = y + (u - ay) * d
                if sy < 0 or sy >= h:
                    continue
                row = src[sy]
                wrow = wts[u]
                for v in range(kw):
                    sx = x + (v - ax) * d
                    if 0 <= sx < w:
                        acc += wrow[v] * row[sx]
            out[y][x] = acc
    return np.array(out)


def tap_conv(plane, kernel, dilation: int = 1) -> np.ndarray:
    """naive_conv's result, one kernel tap at a time: O(k^2) per pixel.

    Planes are (..., H, W) and kernels (..., kh, kw), their leading axes
    broadcast. Taps (u, v) run in ascending order, each one multiply-add of
    kernel[..., u, v] with the zero-padded plane read at (u d, v d) over
    whole rows of the padded width, at one flat offset: an output row runs
    on into the padding columns, which are cut off at the end, so every
    output pixel gets the arithmetic of a 2-D window without a loop over
    rows.
    """
    plane = np.asarray(plane, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    h, w = plane.shape[-2:]
    kh, kw = kernel.shape[-2:]
    d = dilation
    top, left = (kh - 1) // 2 * d, (kw - 1) // 2 * d
    wp = w + (kw - 1) * d
    # one spare zero row, so the last tap's run-on stays inside the buffer
    padded = np.zeros(plane.shape[:-2] + (h + (kh - 1) * d + 1, wp))
    padded[..., top : top + h, left : left + w] = plane
    flat = padded.reshape(plane.shape[:-2] + (-1,))
    lead = np.broadcast_shapes(plane.shape[:-2], kernel.shape[:-2])
    out = np.zeros(lead + (h * wp,))
    for u in range(kh):
        for v in range(kw):
            start = u * d * wp + v * d
            out += kernel[..., u, v][..., None] * flat[..., start : start + h * wp]
    return np.ascontiguousarray(out.reshape(lead + (h, wp))[..., :w])


def coverage_profile(lo: float, hi: float, offsets) -> np.ndarray:
    """Per-pixel weight of the half-open coverage interval [lo, hi).

    A pixel at integer offset q occupies [q, q+1), so its weight is the
    overlap length clip(hi - q, 0, 1) - clip(lo - q, 0, 1).
    """
    q = np.asarray(offsets, dtype=np.float64)
    return np.clip(hi - q, 0.0, 1.0) - np.clip(lo - q, 0.0, 1.0)


def effective_kernels(theta, split, weight, k: int, variant) -> np.ndarray:
    """(C, k+1, k+1) dense kernels equivalent to a layer's sub-pixel boxes.

    theta, split and weight are the layer's (C, ...) box arrays. Interior
    pixels weigh 1, edge strips carry their fractional coverage, corners
    the product; each sub-box adds its outer product of coverage profiles
    scaled by its weight, in sub-box order. Entries land on offsets
    -(k-1)/2 .. (k-1)/2 + 1 with the anchor at the window center.
    """
    xs, ys, subs = box_geometry(theta, split, weight, k, variant)
    r = (k - 1) // 2
    offsets = np.arange(-r, r + 2)
    kern = np.zeros((len(theta), k + 1, k + 1))
    for i, (ixl, ixh, iyl, iyh) in enumerate(subs):
        px = coverage_profile(xs[:, ixl, None], xs[:, ixh, None], offsets)
        py = coverage_profile(ys[:, iyl, None], ys[:, iyh, None], offsets)
        kern += weight[:, i, None, None] * (py[:, :, None] * px[:, None, :])
    return kern


def effective_kernel(box: BoxParams) -> DenseKernel:
    """The dense kernel of one box: effective_kernels of a one-row layer."""
    kern = effective_kernels(*box_arrays([box], box.variant), box.max_kernel, box.variant)
    return DenseKernel(kern[0])


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


def finite_diff(f, at: float, h: float = 1e-5) -> float:
    """Central difference (f(at+h) - f(at-h)) / 2h."""
    return (f(at + h) - f(at - h)) / (2.0 * h)
