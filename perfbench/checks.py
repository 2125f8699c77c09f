"""Correctness checks that judge the benchmark's outputs.

Every check compares against a computation made apart from ``sat`` and
``layer`` (a dense correlation written here, with weights from
``oracle.effective_kernel``; a central difference of the forward pass), or
against a property the method must have (linearity, feasible boxes, a
finite and falling loss). None compares against stored outputs.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from satconv.boxes import BoxVariant
from satconv.layer import BoxConvLayer
from satconv.oracle import effective_kernel

FORWARD_RTOL = 1e-9  # of the channel's largest output magnitude
ADJOINT_RTOL = 1e-10  # of the Cauchy-Schwarz bound on either inner product
EDGE_GRAD_RTOL = 1e-6
EDGE_STEP_PX = 0.01  # central-difference step, in pixels
EDGE_MARGIN_PX = 0.1  # a checked edge sits at least this far from the lattice


def correlate_at(plane, kernel, ys, xs) -> np.ndarray:
    """Dense correlation of a zero-padded plane at the given output pixels.

    out[n] = sum over (u, v) of kernel[u, v] * plane[ys[n] + u - ay, xs[n] + v - ax],
    with the anchor (ay, ax) = ((kh - 1) // 2, (kw - 1) // 2) of oracle.naive_conv.
    """
    h, w = plane.shape
    kh, kw = kernel.shape
    iy = ys[:, None] + np.arange(kh) - (kh - 1) // 2
    ix = xs[:, None] + np.arange(kw) - (kw - 1) // 2
    inside = ((iy >= 0) & (iy < h))[:, :, None] & ((ix >= 0) & (ix < w))[:, None, :]
    windows = plane[np.clip(iy, 0, h - 1)[:, :, None], np.clip(ix, 0, w - 1)[:, None, :]]
    return np.einsum("nij,ij->n", windows * inside, kernel)


def forward_matches_oracle(boxes, x, y, rng, n_pixels: int) -> bool:
    """Sampled output pixels of every channel equal the effective-kernel correlation."""
    _, h, w = x.shape
    for c, box in enumerate(boxes):
        ys = rng.integers(0, h, size=n_pixels)
        xs = rng.integers(0, w, size=n_pixels)
        want = correlate_at(x[c], effective_kernel(box).weights, ys, xs)
        scale = max(float(np.max(np.abs(y[c]))), 1e-300)
        if not np.max(np.abs(y[c, ys, xs] - want)) <= FORWARD_RTOL * scale:
            return False
    return True


def adjoint_holds(x, y, g, gx) -> bool:
    """<L x, g> = <x, L^T g> for a layer that is linear in its input."""
    lhs = float(np.vdot(y, g))
    rhs = float(np.vdot(x, gx))
    bound = max(np.linalg.norm(y) * np.linalg.norm(g), np.linalg.norm(x) * np.linalg.norm(gx))
    return math.isfinite(lhs) and abs(lhs - rhs) <= ADJOINT_RTOL * bound


def _checkable_edges(box):
    """(edge, step) pairs whose central difference stays inside one lattice cell."""
    r = (box.max_kernel - 1) / 2
    h = EDGE_STEP_PX / r
    for e, t in enumerate(box.thetas):
        frac = t * r - math.floor(t * r)
        if not EDGE_MARGIN_PX <= frac <= 1.0 - EDGE_MARGIN_PX:
            continue
        moved = [list(box.thetas), list(box.thetas)]
        moved[0][e], moved[1][e] = t - h, t + h
        if box_arrays_feasible(moved, [box.split_theta] * 2, box.variant):
            yield e, h


_EDGE_NAMES = ("theta_xl", "theta_xh", "theta_yl", "theta_yh")


def edge_gradient_matches(boxes, x, g, rng) -> bool:
    """One box-edge gradient, off the lattice, equals a central difference.

    Inside one lattice cell the output is linear in each edge, so the
    difference quotient is exact up to rounding. The channel and edge are
    drawn from ``rng`` among those a safe margin away from the lattice, the
    window border, the other edge and any split line.
    """
    for c in rng.permutation(len(boxes)):
        box = boxes[c]
        candidates = list(_checkable_edges(box))
        if not candidates:
            continue
        e, h = candidates[int(rng.integers(len(candidates)))]
        xc, gc = x[c : c + 1], g[c : c + 1]
        layer = BoxConvLayer([box])
        y, saved = layer.forward(xc)
        analytic = float(layer.backward(saved, gc).grad_boxes[0].theta[e])

        def loss(theta):
            moved = BoxConvLayer([replace(box, **{_EDGE_NAMES[e]: theta})])
            return float(np.vdot(moved.forward(xc)[0], gc))

        t = box.thetas[e]
        numeric = (loss(t + h) - loss(t - h)) / (2 * h)
        floor = 1e-12 * float(np.linalg.norm(y) * np.linalg.norm(gc)) / h
        return abs(analytic - numeric) <= EDGE_GRAD_RTOL * max(abs(analytic), abs(numeric)) + floor
    return False


def box_arrays_feasible(theta, split, variant) -> bool:
    """|theta| <= 1, edges ordered, split lines inside their edges."""
    theta = np.asarray(theta)
    if not np.all(np.abs(theta) <= 1.0):
        return False
    if np.any(theta[:, 0] > theta[:, 1]) or np.any(theta[:, 2] > theta[:, 3]):
        return False
    variant = BoxVariant(variant)
    axes = []
    if variant in (BoxVariant.SPLIT_V, BoxVariant.SPLIT_4):
        axes.append((0, 1))
    if variant in (BoxVariant.SPLIT_H, BoxVariant.SPLIT_4):
        axes.append((2, 3))
    for j, (lo_i, hi_i) in enumerate(axes):
        lo, hi, s = theta[:, lo_i], theta[:, hi_i], np.asarray(split)[:, j]
        strictly_inside = (lo < s) & (s < hi)
        collapsed = (lo == hi) & (s == lo)
        if not np.all(strictly_inside | collapsed):
            return False
    return True


def loss_descends(losses, window: int) -> bool:
    losses = np.asarray(losses, dtype=np.float64)
    if losses.size < 2 * window or not np.all(np.isfinite(losses)):
        return False
    return float(np.mean(losses[-window:])) < float(np.mean(losses[:window]))
