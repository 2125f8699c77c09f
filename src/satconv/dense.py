"""Vectorized dense convolution, the production counterpart of oracle.naive_conv.

Used by the dense depth-wise layers in the toy networks and as the honest
O(k^2) baseline in the benchmark harness. Zero padding, centered window
(anchor (size-1)//2), optional dilation. Cross-checked against the loop
oracle in the test suite.

Planes are (..., H, W) and kernels (..., kh, kw); their leading axes
broadcast, so one call filters a whole (N, C, H, W) stack with a (C, kh, kw)
kernel stack, one multiply-add per kernel tap. Every plane gets exactly the
arithmetic it would get on its own.
"""

from __future__ import annotations

import numpy as np


def _zero_pad(plane, pads, spare_rows: int = 0):
    """Zero-pad the last two axes by ((top, bottom), (left, right)), plus spare rows."""
    (top, bottom), (left, right) = pads
    h, w = plane.shape[-2:]
    padded = np.zeros(plane.shape[:-2] + (top + h + bottom + spare_rows, left + w + right))
    padded[..., top : top + h, left : left + w] = plane
    return padded


def _pads(kh, kw, ay, ax, d):
    return (ay * d, (kh - 1 - ay) * d), (ax * d, (kw - 1 - ax) * d)


def _weighted_windows(plane, pads, kernel, corners):
    """Sum over taps (u, v) of kernel[..., u, v] * padded[..., y:y+h, x:x+w].

    padded is plane zero-padded by pads and corners[(u, v)] the tap's window
    corner (y, x) in it. Each tap is one multiply-add over whole rows of the
    padded width, read at one flat offset: an output row runs on into the
    padding columns, which are cut off at the end, so every output pixel
    gets the arithmetic of a 2-D window, in tap order, without a loop over
    rows.
    """
    h, w = plane.shape[-2:]
    # one spare zero row, so the last tap's run-on stays inside the buffer
    padded = _zero_pad(plane, pads, spare_rows=1)
    wp = padded.shape[-1]
    flat = padded.reshape(plane.shape[:-2] + (-1,))
    lead = np.broadcast_shapes(plane.shape[:-2], kernel.shape[:-2])
    out = np.zeros(lead + (h * wp,))
    for (u, v), (y0, x0) in corners.items():
        start = y0 * wp + x0
        out += kernel[..., u, v][..., None] * flat[..., start : start + h * wp]
    return np.ascontiguousarray(out.reshape(lead + (h, wp))[..., :w])


def conv2d(plane, kernel, dilation: int = 1) -> np.ndarray:
    plane = np.asarray(plane, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    kh, kw = kernel.shape[-2:]
    ay, ax = (kh - 1) // 2, (kw - 1) // 2
    corners = {(u, v): (u * dilation, v * dilation) for u in range(kh) for v in range(kw)}
    return _weighted_windows(plane, _pads(kh, kw, ay, ax, dilation), kernel, corners)


def conv2d_input_grad(kernel, grad_out, dilation: int = 1) -> np.ndarray:
    kernel = np.asarray(kernel, dtype=np.float64)
    g = np.asarray(grad_out, dtype=np.float64)
    kh, kw = kernel.shape[-2:]
    ay, ax = (kh - 1) // 2, (kw - 1) // 2
    # correlation with the flipped kernel: pad so index (kh-1-u)*d stays in range
    pads = ((kh - 1 - ay) * dilation, ay * dilation), ((kw - 1 - ax) * dilation, ax * dilation)
    corners = {(u, v): ((kh - 1 - u) * dilation, (kw - 1 - v) * dilation)
               for u in range(kh) for v in range(kw)}
    return _weighted_windows(g, pads, kernel, corners)


def conv2d_kernel_grad(plane, grad_out, kshape, dilation: int = 1) -> np.ndarray:
    """Kernel gradient of every plane pair: shape (..., kh, kw) over the leading axes."""
    plane = np.asarray(plane, dtype=np.float64)
    g = np.asarray(grad_out, dtype=np.float64)
    h, w = plane.shape[-2:]
    kh, kw = kshape
    ay, ax = (kh - 1) // 2, (kw - 1) // 2
    padded = _zero_pad(plane, _pads(kh, kw, ay, ax, dilation))
    gk = np.zeros(np.broadcast_shapes(plane.shape, g.shape)[:-2] + (kh, kw))
    for u in range(kh):
        for v in range(kw):
            window = padded[..., u * dilation : u * dilation + h,
                            v * dilation : v * dilation + w]
            gk[..., u, v] = (g * window).sum(axis=(-2, -1))
    return gk
