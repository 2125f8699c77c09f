"""Vectorized dense convolution, the production counterpart of oracle.naive_conv.

Used by the dense depth-wise layers in the toy networks and by the kernel
task to filter with its target. Zero padding, centered window (anchor
(size-1)//2), optional dilation. Cross-checked against the loop oracle in
the test suite.

Planes are (..., H, W) and kernels (..., kh, kw); their leading axes
broadcast, so one call filters a whole (N, C, H, W) stack with a (C, kh, kw)
kernel stack, and every plane gets exactly the arithmetic it would get on
its own.

All three passes are banded matrix products, as Chellapilla, Puri and Simard
lower convolution ("High Performance Convolutional Neural Networks for Document
Processing", 2006). Output rows are cut into tiles of TILE columns. A tile
reads kh rows of the zero-padded input, each over wt = TILE + (kw - 1) d
columns; laid side by side they are one row of the rows matrix, and its
product with the kernel's banded Toeplitz matrix, (kh wt, TILE) with
kernel[u, v] at row u wt + j + v d of column j, is the tile. A pass is one
batched np.matmul over every plane per strip of output rows, at kh wt
multiply-adds per pixel, flat in the plane's size. A strip holds at most
STRIP_BYTES of one plane's rows matrix, so that a large stack's product
stays in cache; a 32^2 plane is one strip. The input gradient is the same
product with the flipped kernel and swapped pads. The kernel gradient is
the rows matrix, transposed, times the tiled cotangent, summed over the
strips; its entries where the Toeplitz matrix holds kernel[u, v] sum to
gk[u, v]. The results do not depend on the BLAS thread count (tested).

The benchmark's O(k^2) baseline, one multiply-add per kernel tap, is
oracle.tap_conv.
"""

from __future__ import annotations

import functools

import numpy as np

TILE = 16  # output columns per row of the rows matrix
STRIP_BYTES = 1 << 16  # the most bytes of one plane's rows matrix a strip holds


def _zero_pad(plane, pads):
    """Zero-pad the last two axes by ((top, bottom), (left, right))."""
    (top, bottom), (left, right) = pads
    h, w = plane.shape[-2:]
    padded = np.zeros(plane.shape[:-2] + (top + h + bottom, left + w + right))
    padded[..., top : top + h, left : left + w] = plane
    return padded


def _pads(kh, kw, ay, ax, d):
    return (ay * d, (kh - 1 - ay) * d), (ax * d, (kw - 1 - ax) * d)


def _row_strips(plane, pads, kh, kw, d):
    """The rows matrix of plane zero-padded by pads, in strips of output
    rows: yields (r0, r1, rows), rows (..., r1 - r0, kh wt) with wt = TILE +
    (kw - 1) d, whose row r = i nt + t holds the padded plane's rows i + u d,
    u = 0 .. kh - 1, over columns t TILE .. t TILE + wt - 1, side by side
    (nt tiles per output row; columns past the padding read zeros). A
    strip holds at most STRIP_BYTES of one plane's rows, or one output row."""
    h, w = plane.shape[-2:]
    nt, wt = -(-w // TILE), TILE + (kw - 1) * d
    (top, bottom), (left, right) = pads
    padded = _zero_pad(plane, ((top, bottom), (left, right + nt * TILE - w)))
    s = padded.strides
    windows = np.ndarray(plane.shape[:-2] + (h, nt, kh, wt), padded.dtype, padded, 0,
                         s[:-2] + (s[-2], TILE * 8, d * s[-2], 8))
    step = max(1, STRIP_BYTES // (8 * nt * kh * wt))
    for i0 in range(0, h, step):
        i1 = min(h, i0 + step)
        rows = np.ascontiguousarray(windows[..., i0:i1, :, :, :])
        yield i0 * nt, i1 * nt, rows.reshape(plane.shape[:-2] + ((i1 - i0) * nt, kh * wt))


@functools.cache
def _band(kh, kw, d):
    """The flat positions in a (kh wt, TILE) matrix of taps (u, v) at row
    u wt + j + v d of column j, tap-major, TILE per tap."""
    wt = TILE + (kw - 1) * d
    u, v, j = np.ix_(range(kh), range(kw), range(TILE))
    positions = ((u * wt + j + v * d) * TILE + j).ravel()
    positions.flags.writeable = False  # shared by every caller
    return positions


def _toeplitz(kernel, d):
    """(..., kh wt, TILE): kernel[..., u, v] at row u wt + j + v d of column j."""
    *lead, kh, kw = kernel.shape
    m = np.zeros((*lead, kh * (TILE + (kw - 1) * d) * TILE))
    m[..., _band(kh, kw, d)] = np.repeat(kernel.reshape(*lead, kh * kw), TILE, axis=-1)
    return m.reshape(*lead, -1, TILE)


def _banded_product(plane, pads, kernel, d):
    """The correlation of plane, zero-padded by pads, with kernel:
    out[..., i, j] = sum over (u, v) of kernel[..., u, v] *
    padded[..., i + u d, j + v d]."""
    h, w = plane.shape[-2:]
    m = _toeplitz(kernel, d)
    lead = np.broadcast_shapes(plane.shape[:-2], kernel.shape[:-2])
    out = np.empty(lead + (h * -(-w // TILE), TILE))
    for r0, r1, rows in _row_strips(plane, pads, *kernel.shape[-2:], d):
        np.matmul(rows, m, out=out[..., r0:r1, :])
    planes = out.reshape(lead + (h, -1))
    return planes if planes.shape[-1] == w else np.ascontiguousarray(planes[..., :w])


def conv2d(plane, kernel, dilation: int = 1) -> np.ndarray:
    plane = np.asarray(plane, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    kh, kw = kernel.shape[-2:]
    ay, ax = (kh - 1) // 2, (kw - 1) // 2
    pads = _pads(kh, kw, ay, ax, dilation)
    return _banded_product(plane, pads, kernel, dilation)


def conv2d_input_grad(kernel, grad_out, dilation: int = 1) -> np.ndarray:
    kernel = np.asarray(kernel, dtype=np.float64)
    g = np.asarray(grad_out, dtype=np.float64)
    kh, kw = kernel.shape[-2:]
    ay, ax = (kh - 1) // 2, (kw - 1) // 2
    # correlation with the flipped kernel: pad so index (kh-1-u)*d stays in range
    pads = ((kh - 1 - ay) * dilation, ay * dilation), ((kw - 1 - ax) * dilation, ax * dilation)
    return _banded_product(g, pads, kernel[..., ::-1, ::-1], dilation)


def conv2d_kernel_grad(plane, grad_out, kshape, dilation: int = 1) -> np.ndarray:
    """Kernel gradient of every plane pair: shape (..., kh, kw) over the leading axes."""
    plane = np.asarray(plane, dtype=np.float64)
    g = np.asarray(grad_out, dtype=np.float64)
    h, w = plane.shape[-2:]
    kh, kw = kshape
    ay, ax = (kh - 1) // 2, (kw - 1) // 2
    pads = _pads(kh, kw, ay, ax, dilation)
    lead = np.broadcast_shapes(plane.shape, g.shape)[:-2]
    # p[(u, c), j] sums padded[i + u d, t TILE + c] g[i, t TILE + j] over
    # every row i and tile t; gk[u, v] sums its entries c = j + v d, which
    # lie where the kernel's matrix holds kernel[u, v]
    nt = -(-w // TILE)
    if nt * TILE > w:
        g = _zero_pad(g, ((0, 0), (0, nt * TILE - w)))
    tiles = g.reshape(g.shape[:-2] + (h * nt, TILE))
    parts = (np.matmul(np.swapaxes(rows, -1, -2), tiles[..., r0:r1, :])
             for r0, r1, rows in _row_strips(plane, pads, kh, kw, dilation))
    p = next(parts)
    for part in parts:
        p += part
    taps = np.take(p.reshape(lead + (-1,)), _band(kh, kw, dilation), axis=-1)
    return taps.reshape(lead + (kh, kw, TILE)).sum(axis=-1)
