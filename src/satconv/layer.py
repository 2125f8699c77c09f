"""Depth-wise box convolution: plan-driven forward, analytic backward.

One box per channel. Inputs are (C, H, W) or a batch (N, C, H, W); every
sample is computed exactly as it would be on its own. Forward builds each
channel's summed-area tables for the whole batch in one call and evaluates
the channel's compiled tap list as strided slices over all samples;
because integer strides preserve the fractional parts of the sample
coordinates, the interpolation weights inside the taps are constant over
the whole plane. Out-of-range lattice reads are resolved by
edge-replicating the table, which reproduces zero-padding of the source
exactly (the table is constant beyond its borders) and makes every tap a
strided slice. Forward runs in strips of output rows: each strip copies
the table rows it reads into a small edge-padded buffer and runs every
tap on it before the next strip starts, so the 16 or more passes per
channel read from cache rather than memory on large planes; every output
pixel gets the same sums in the same order as one pass per tap over the
whole plane. A channel whose table is not finite (NaN or inf in the
input, or sums that overflow float64) is rejected: one bad pixel would
spoil every output whose box reaches below and to the right of it.

Backward produces three gradient families:

* input: tap weights scattered into a table-shaped buffer, replication
  margins folded back onto the border, then one reverse prefix-sum pass
  (the adjoint of table construction) per channel over the batch;
* box coordinates: every sample site's value and coordinate derivatives
  are linear in four scalars, the inner products of the output cotangent
  with the table read at each corner of the site's lattice cell. Backward
  takes one inner product per sample and distinct lattice corner of the
  plan's cells (sites sharing a corner share it) and blends them with the
  site's constant interpolation fractions; the site derivative, weighted
  by its folded coefficient, moves exactly one normalized parameter, with
  the window half-width as chain factor. Sites whose reads fall in the
  replicated margin see equal corner products and so contribute zero,
  matching the convention that clamped coordinates have zero gradient;
* sub-box weights: the four-corner difference of the sub-box's site
  values, each value being the bilinear blend of its corner products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import BoxVariant, compile_plan
from .fmap import DimensionError, as_feature_map
from .sat import build_sat, sat_backward

# Bytes of output rows, over all samples, that forward evaluates per strip.
# With the table rows those rows read (about one box height more), a strip's
# working set stays inside a 2 MB L2 cache on 1024-wide planes.
STRIP_BYTES = 256 * 1024


@dataclass
class BoxGrads:
    """Per-box parameter gradients, one row per sample for a batched input.

    Shapes are (..., 4) for the edges (theta_xl, theta_xh, theta_yl,
    theta_yh), (..., n_splits) and (..., n_weights), with the input's batch
    axis leading when it has one.
    """

    theta: np.ndarray
    split_theta: np.ndarray
    split_weights: np.ndarray


@dataclass
class LayerGradients:
    grad_input: np.ndarray
    grad_boxes: list


@dataclass
class BoxConvSaved:
    """Forward state retained for the backward pass."""

    in_shape: tuple
    out_shape: tuple
    stride: int
    sats: list  # per channel, the (..., H+1, W+1) tables of every sample
    plans: list
    dtype: np.dtype


def _margins(cells, n_out, n, stride):
    """Lattice entries a table axis of n+1 entries lacks before and after it.

    cells are the plan's (floor, frac) pairs on that axis; output i reads
    entries floor + i * stride and floor + 1 + i * stride, for i < n_out.
    """
    lo = [c0 for c0, _ in cells]
    return max(0, -min(lo)), max(0, max(lo) + 1 + (n_out - 1) * stride - n)


def _padded_sat(sat, plan, out_h, out_w, stride):
    """Edge-replicate (..., H+1, W+1) tables so every cell corner is a slice."""
    h, w = sat.shape[-2] - 1, sat.shape[-1] - 1
    left, right = _margins(plan.x_cells, out_w, w, stride)
    top, bottom = _margins(plan.y_cells, out_h, h, stride)
    # np.pad(mode="edge") makes the same array at several times the cost
    padded = np.empty(sat.shape[:-2] + (top + h + 1 + bottom, left + w + 1 + right))
    rows = slice(top, top + h + 1)
    padded[..., rows, left : left + w + 1] = sat
    padded[..., rows, :left] = sat[..., :, :1]
    padded[..., rows, left + w + 1 :] = sat[..., :, -1:]
    padded[..., :top, :] = padded[..., top : top + 1, :]
    padded[..., top + h + 1 :, :] = padded[..., top + h : top + h + 1, :]
    return padded, top, left


def _tap_slices(top, left, dy, dx, out_h, out_w, stride):
    y0 = top + dy
    x0 = left + dx
    return (Ellipsis,
            slice(y0, y0 + (out_h - 1) * stride + 1, stride),
            slice(x0, x0 + (out_w - 1) * stride + 1, stride))


def _scatter_taps(gc, taps, padded_shape, top, left, stride):
    """Adjoint of the tap evaluation: sum of wt * gc placed at each tap's slice.

    Each tap is one flat, contiguous multiply-add over whole padded planes:
    gc sits, stride-spaced, in a zero plane of the padded width with margins
    wide enough for every tap's shift, so a tap reads it at one flat offset.
    Cells outside the tap's slice (including reads that wrap into the next
    row) receive wt * 0, which leaves their sums unchanged.
    """
    hp, wp = padded_shape[-2:]
    lead = gc.shape[:-2]
    out_h, out_w = gc.shape[-2:]
    gpad = np.zeros(padded_shape)
    if not taps:
        return gpad
    ys = [top + dy for _, dy, _ in taps]
    xs = [left + dx for dx, _, _ in taps]
    y_hi, x_hi = max(ys), max(xs)
    spread = np.zeros(lead + (y_hi - min(ys) + hp + 1, wp))
    spread[..., y_hi : y_hi + (out_h - 1) * stride + 1 : stride,
           x_hi : x_hi + (out_w - 1) * stride + 1 : stride] = gc
    spread = spread.reshape(lead + (-1,))
    flat = gpad.reshape(lead + (-1,))
    for (dx, dy, wt), y0, x0 in zip(taps, ys, xs):
        start = (y_hi - y0) * wp + x_hi - x0
        flat += wt * spread[..., start : start + hp * wp]
    return gpad


def _corner_products(gc, padded, top, left, plan, stride):
    """Inner products of gc with the table read at every site's cell corners.

    Returns q of shape (nx, 2, ny, 2, ...): q[ix, i, iy, j] pairs x cell ix
    and y cell iy with their corner (x0 + i, y0 + j), one product per sample.
    Sites that share a corner share its product.
    """
    out_h, out_w = gc.shape[-2:]
    products = {}

    def product(dx, dy):
        if (dx, dy) not in products:
            view = padded[_tap_slices(top, left, dy, dx, out_h, out_w, stride)]
            products[dx, dy] = np.einsum("...ij,...ij->...", gc, view)
        return products[dx, dy]

    return np.array([[[[product(x0 + i, y0 + j) for j in (0, 1)] for y0, _ in plan.y_cells]
                      for i in (0, 1)] for x0, _ in plan.x_cells])


def _site_terms(q, plan):
    """Site values and coordinate derivatives, blended from corner products.

    q is _corner_products' output. Returns every site's value (nx, ny, ...)
    and the coefficient-weighted derivative sums per x site (nx, ...) and
    per y site (ny, ...), each summed in site order.
    """
    extra = (1,) * (q.ndim - 4)
    a = np.array([f for _, f in plan.x_cells]).reshape((-1, 1) + extra)
    b = np.array([f for _, f in plan.y_cells]).reshape((1, -1) + extra)
    coeff = np.array(plan.coeffs).reshape(a.shape[:1] + b.shape[1:2] + extra)
    q00, q10, q01, q11 = q[:, 0, :, 0], q[:, 1, :, 0], q[:, 0, :, 1], q[:, 1, :, 1]
    values = (1 - a) * (1 - b) * q00 + a * (1 - b) * q10 + (1 - a) * b * q01 + a * b * q11
    dx = coeff * ((1 - b) * (q10 - q00) + b * (q11 - q01))
    dy = coeff * ((1 - a) * (q01 - q00) + a * (q11 - q10))
    return values, sum(dx[:, j] for j in range(b.shape[1])), sum(dy[i] for i in range(a.shape[0]))


def _forward_channel(sat, plan, out, stride):
    """Evaluate one channel's taps from its (..., H+1, W+1) tables into out.

    out is the channel's (..., out_h, out_w) output. Strips of output rows
    are taken so that one strip of every sample fills STRIP_BYTES. A strip
    copies the table rows its taps read into a buffer, clamped to the
    table's first row (all zero) above it and its last row below it, with
    the zero left margin and the edge-replicated right margin that
    _padded_sat would add, then accumulates the taps in plan order.
    """
    h, w = sat.shape[-2] - 1, sat.shape[-1] - 1
    lead = out.shape[:-2]
    out_h, out_w = out.shape[-2:]
    left, right = _margins(plan.x_cells, out_w, w, stride)
    dys = [y0 for y0, _ in plan.y_cells]
    y_lo, span = min(dys), max(dys) + 2 - min(dys)  # table rows one output row reads
    rows = max(1, min(out_h, STRIP_BYTES // (8 * out_w * math.prod(lead))))
    buf = np.zeros(lead + ((rows - 1) * stride + span, left + w + 1 + right))
    acc = np.empty(lead + (rows, out_w))
    cols = slice(left, left + w + 1)
    for r0 in range(0, out_h, rows):
        n = min(rows, out_h - r0)
        y0 = y_lo + r0 * stride  # table row read by the strip's first buffer row
        strip = buf[..., : (n - 1) * stride + span, :]
        top = min(max(-y0, 0), strip.shape[-2])
        bottom = min(max(h + 1 - y0, 0), strip.shape[-2])
        strip[..., :top, :] = 0.0
        strip[..., top:bottom, cols] = sat[..., y0 + top : y0 + bottom, :]
        strip[..., bottom:, cols] = sat[..., h:, :]
        strip[..., left + w + 1 :] = strip[..., left + w : left + w + 1]
        a = acc[..., :n, :]
        a[...] = 0.0
        for dx, dy, wt in plan.taps:
            a += wt * strip[_tap_slices(-y_lo, left, dy, dx, n, out_w, stride)]
        out[..., r0 : r0 + n, :] = a


class BoxConvLayer:
    """Depth-wise layer pairing each input channel with one learnable box."""

    def __init__(self, boxes, stride: int = 1):
        boxes = list(boxes)
        if not boxes:
            raise DimensionError("layer needs at least one box")
        ks = {p.max_kernel for p in boxes}
        if len(ks) != 1:
            raise DimensionError(f"all boxes in a layer must share max_kernel, got {sorted(ks)}")
        if int(stride) != stride or stride < 1:
            raise ValueError(f"stride must be a positive integer, got {stride}")
        self.boxes = boxes
        self.stride = int(stride)
        self.plans = None
        self.recompile()

    @property
    def channels(self) -> int:
        return len(self.boxes)

    @property
    def max_kernel(self) -> int:
        return self.boxes[0].max_kernel

    def recompile(self) -> None:
        self.plans = [compile_plan(p) for p in self.boxes]

    def set_boxes(self, boxes) -> None:
        if len(boxes) != self.channels:
            raise DimensionError("channel count cannot change")
        self.boxes = list(boxes)
        self.recompile()

    def out_shape(self, in_shape):
        """Output shape for a (C, H, W) or (N, C, H, W) input shape."""
        *lead, c, h, w = in_shape
        return (*lead, c, -(-h // self.stride), -(-w // self.stride))

    def multadd_count(self, in_shape) -> int:
        """Forward multiply-adds in the tap evaluation, excluding table builds."""
        *lead, _, out_h, out_w = self.out_shape(in_shape)
        return int(np.prod(lead, dtype=np.int64)) * out_h * out_w * sum(
            len(p.taps) for p in self.plans)

    def forward(self, x):
        x = as_feature_map(x)
        if x.shape[-3] != self.channels:
            raise DimensionError(f"input has {x.shape[-3]} channels, layer has {self.channels}")
        out_shape = self.out_shape(x.shape)
        plans = list(self.plans)
        # One table block per channel, each covering the whole batch: one
        # (N, C, H+1, W+1) block raised peak memory at 4x1024^2 by 7 MB.
        sats = [build_sat(x[..., c, :, :]) for c in range(self.channels)]
        for c, sat in enumerate(sats):
            # A running sum stays non-finite once it is, so the bottom row of a
            # table is finite exactly when the whole table is.
            if not np.isfinite(sat[..., -1, :]).all():
                raise ValueError(
                    f"channel {c}: input holds NaN or inf, or its sums overflow float64"
                )
        out = np.empty(out_shape, dtype=np.float64)
        for c, (sat, plan) in enumerate(zip(sats, plans)):
            _forward_channel(sat, plan, out[..., c, :, :], self.stride)
        saved = BoxConvSaved(
            in_shape=x.shape,
            out_shape=out_shape,
            stride=self.stride,
            sats=sats,
            plans=plans,
            dtype=x.dtype,
        )
        return out.astype(x.dtype, copy=False), saved

    def backward(self, saved: BoxConvSaved, grad_output) -> LayerGradients:
        g = np.asarray(grad_output, dtype=np.float64)
        if g.shape != saved.out_shape:
            raise DimensionError(f"grad_output shape {g.shape} != forward output {saved.out_shape}")
        h, w = saved.in_shape[-2:]
        out_h, out_w = saved.out_shape[-2:]
        stride = saved.stride
        grad_input = np.empty(saved.in_shape, dtype=np.float64)
        grad_boxes = []
        for c, (plan, p) in enumerate(zip(saved.plans, self.boxes)):
            gc = g[..., c, :, :]
            padded, top, left = _padded_sat(saved.sats[c], plan, out_h, out_w, stride)

            # input path: scatter tap weights, fold replication margins, adjoint pass
            gpad = _scatter_taps(gc, plan.taps, padded.shape, top, left, stride)
            if top:
                gpad[..., top, :] += gpad[..., :top, :].sum(axis=-2)
            bot = top + h
            if gpad.shape[-2] - 1 > bot:
                gpad[..., bot, :] += gpad[..., bot + 1 :, :].sum(axis=-2)
            if left:
                gpad[..., left] += gpad[..., :left].sum(axis=-1)
            rgt = left + w
            if gpad.shape[-1] - 1 > rgt:
                gpad[..., rgt] += gpad[..., rgt + 1 :].sum(axis=-1)
            grad_input[..., c, :, :] = sat_backward(
                gpad[..., top : top + h + 1, left : left + w + 1])

            # parameter path: one inner product <gc, table view> per sample and
            # lattice corner of the plan's cells
            q = _corner_products(gc, padded, top, left, plan, stride)
            values, gx_sites, gy_sites = _site_terms(q, plan)

            r = (p.max_kernel - 1) / 2
            lead = gc.shape[:-2]
            theta = np.stack([gx_sites[0], gx_sites[-1], gy_sites[0], gy_sites[-1]], axis=-1) * r
            split = []
            if p.variant in (BoxVariant.SPLIT_V, BoxVariant.SPLIT_4):
                split.append(gx_sites[1] * r)
            if p.variant in (BoxVariant.SPLIT_H, BoxVariant.SPLIT_4):
                split.append(gy_sites[1] * r)
            if p.variant == BoxVariant.SINGLE:
                sw = np.zeros(lead + (1,))
            else:
                sw = np.stack([
                    values[ixh, iyh] - values[ixl, iyh] - values[ixh, iyl] + values[ixl, iyl]
                    for ixl, ixh, iyl, iyh, _wgt in plan.sub_boxes
                ], axis=-1)
            grad_boxes.append(BoxGrads(
                theta=theta,
                split_theta=np.stack(split, axis=-1) if split else np.zeros(lead + (0,)),
                split_weights=sw,
            ))
        return LayerGradients(
            grad_input=grad_input.astype(saved.dtype, copy=False),
            grad_boxes=grad_boxes,
        )
