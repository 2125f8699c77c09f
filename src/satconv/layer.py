"""Depth-wise box convolution: plan-driven forward, analytic backward.

One box per channel. Inputs are (C, H, W) or a batch (N, C, H, W); every
sample is computed exactly as it would be on its own. Forward builds one
channel's summed-area tables at a time, for the whole batch in one call,
evaluates the channel's compiled tap list over all samples and drops the
tables; because integer strides preserve the fractional parts of the
sample coordinates, the interpolation weights inside the taps are constant
over the whole plane. Out-of-range lattice reads are resolved by
edge-replicating the table, which reproduces zero-padding of the source
exactly (the table is constant beyond its borders). Forward runs in strips
of output rows: each strip copies the table rows it reads into a small
edge-padded buffer and runs every tap on it before the next strip starts,
so the 16 or more passes per channel read from cache rather than memory on
large planes. A tap is one multiply-add over a contiguous, stride-stepped
slice of the flattened buffer; every output pixel gets the same sums in
the same order as one pass per tap over the whole plane. A channel whose
table is not finite (NaN or inf in the input, or sums that overflow
float64) is rejected: one bad pixel would spoil every output whose box
reaches below and to the right of it.

Backward is box forward run on the cotangent, read through flipped views.
Placed on the input grid (stride-spaced, zeros between) and flipped along
both axes, each channel's cotangent gets one summed-area table T, built
like forward's. The mirrored box filter of the cotangent, which is the
input gradient, is then the same plan evaluated on T by the same strip
routine at stride 1, written into a flipped view of the channel's input
gradient. No table of the input is kept from forward to backward, only
the input itself. Three gradient families come out:

* input: the strip routine on T, as above;
* box coordinates: every sample site's value and coordinate derivatives
  are linear in four scalars, the inner products of the output cotangent
  with the input's table read at each corner of the site's lattice cell.
  Each such product equals the inner product of the flipped input with T
  read at the same corner, so backward takes one product per sample and
  distinct lattice corner of the plan's cells (sites sharing a corner
  share it) and blends them with the site's constant interpolation
  fractions; the site derivative, weighted by its folded coefficient,
  moves exactly one normalized parameter, with the window half-width as
  chain factor. Sites whose reads fall in the replicated margin see equal
  corner products and so contribute zero, matching the convention that
  clamped coordinates have zero gradient;
* sub-box weights: the four-corner difference of the sub-box's site
  values, each value being the bilinear blend of its corner products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import BoxVariant, compile_plan
from .fmap import DimensionError, as_feature_map
from .sat import build_sat, sat_backward  # sat_backward: only perfbench's tracer reads it here

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

    x: np.ndarray  # the input, (C, H, W) or (N, C, H, W)
    out_shape: tuple
    stride: int
    plans: list


def _margins(cells, n_out, n, stride):
    """Lattice entries a table axis of n+1 entries lacks before and after it.

    cells are the plan's (floor, frac) pairs on that axis; output i reads
    entries floor + i * stride and floor + 1 + i * stride, for i < n_out.
    """
    lo = [c0 for c0, _ in cells]
    return max(0, -min(lo)), max(0, max(lo) + 1 + (n_out - 1) * stride - n)


def _padded_sat(sat, plan):
    """Edge-replicate (..., H+1, W+1) tables so every stride-1 cell corner is a slice."""
    h, w = sat.shape[-2] - 1, sat.shape[-1] - 1
    left, right = _margins(plan.x_cells, w, w, 1)
    top, bottom = _margins(plan.y_cells, h, h, 1)
    # np.pad(mode="edge") makes the same array at several times the cost
    padded = np.empty(sat.shape[:-2] + (top + h + 1 + bottom, left + w + 1 + right))
    rows = slice(top, top + h + 1)
    padded[..., rows, left : left + w + 1] = sat
    padded[..., rows, :left] = sat[..., :, :1]
    padded[..., rows, left + w + 1 :] = sat[..., :, -1:]
    padded[..., :top, :] = padded[..., top : top + 1, :]
    padded[..., top + h + 1 :, :] = padded[..., top + h : top + h + 1, :]
    return padded, top, left


def _corner_products(v, padded, top, left, plan):
    """Inner products of v with the table read at every site's cell corners.

    v is (..., H, W) and padded its (..., H+1, W+1) table edge-replicated by
    _padded_sat; corner (dx, dy) is read at stride 1. Returns q of shape
    (nx, 2, ny, 2, ...): q[ix, i, iy, j] pairs x cell ix and y cell iy with
    their corner (x0 + i, y0 + j), one product per sample. Sites that share
    a corner share its product.
    """
    h, w = v.shape[-2:]
    products = {}

    def product(dx, dy):
        if (dx, dy) not in products:
            view = padded[..., top + dy : top + dy + h, left + dx : left + dx + w]
            products[dx, dy] = np.einsum("...ij,...ij->...", v, view)
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

    out is the channel's (..., out_h, out_w) output, or any view of it.
    Strips of output rows are taken so that one strip of every sample fills
    STRIP_BYTES. A strip copies the table rows its taps read into a buffer,
    clamped to the table's first row (all zero) above it and its last row
    below it, with the zero left margin and the edge-replicated right
    margin that _padded_sat would add, then accumulates the taps in plan
    order. Each tap is one stride-stepped slice of the flattened buffer
    into a contiguous accumulator of rows of buffer width, of which the
    first out_w columns are kept; the rest read across a row end, and the
    last row's into up to stride spare buffer rows below the strip.
    """
    h, w = sat.shape[-2] - 1, sat.shape[-1] - 1
    lead = out.shape[:-2]
    out_h, out_w = out.shape[-2:]
    left, right = _margins(plan.x_cells, out_w, w, stride)
    width = left + w + 1 + right
    dys = [y0 for y0, _ in plan.y_cells]
    y_lo, span = min(dys), max(dys) + 2 - min(dys)  # table rows one output row reads
    samples = math.prod(lead)
    rows = max(1, min(out_h, STRIP_BYTES // (8 * out_w * samples)))
    buf = np.zeros(lead + (rows * stride + span, width))
    flat = buf.reshape(lead + (-1,))
    acc = np.empty(samples * rows * width)
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
        size = n * width
        # contiguous, also for a batch: in-place adds into a strided view cost 3x
        a = acc[: samples * size].reshape(lead + (size,))
        a[...] = 0.0
        for dx, dy, wt in plan.taps:
            start = (dy - y_lo) * width + left + dx
            a += wt * flat[..., start : start + size * stride : stride]
        out[..., r0 : r0 + n, :] = a.reshape(lead + (n, width))[..., :out_w]


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
        out = np.empty(out_shape, dtype=np.float64)
        for c, plan in enumerate(plans):
            # One table block per channel, covering the whole batch, alive only
            # while its channel is evaluated.
            sat = build_sat(x[..., c, :, :])
            # A running sum stays non-finite once it is, so the bottom row of a
            # table is finite exactly when the whole table is.
            if not np.isfinite(sat[..., -1, :]).all():
                raise ValueError(
                    f"channel {c}: input holds NaN or inf, or its sums overflow float64"
                )
            _forward_channel(sat, plan, out[..., c, :, :], self.stride)
        saved = BoxConvSaved(x=x, out_shape=out_shape, stride=self.stride, plans=plans)
        return out.astype(x.dtype, copy=False), saved

    def backward(self, saved: BoxConvSaved, grad_output) -> LayerGradients:
        g = np.asarray(grad_output, dtype=np.float64)
        if g.shape != saved.out_shape:
            raise DimensionError(f"grad_output shape {g.shape} != forward output {saved.out_shape}")
        x, s = saved.x, saved.stride
        grad_input = np.empty(x.shape, dtype=np.float64)
        grad_boxes = []
        gs = np.zeros(x.shape[:-3] + x.shape[-2:])  # zero off the stride grid for every channel
        for c, (plan, p) in enumerate(zip(saved.plans, self.boxes)):
            gc = g[..., c, :, :]
            # the cotangent placed on the input grid, and the table of its flip
            gs[..., ::s, ::s] = gc
            sat = build_sat(gs[..., ::-1, ::-1])

            # input path: the box filter of the flipped cotangent, flipped back
            _forward_channel(sat, plan, grad_input[..., c, ::-1, ::-1], 1)

            # parameter path: one inner product <flip(x), table view> per sample
            # and lattice corner of the plan's cells
            padded, top, left = _padded_sat(sat, plan)
            q = _corner_products(np.ascontiguousarray(x[..., c, ::-1, ::-1]), padded, top, left,
                                 plan)
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
            grad_input=grad_input.astype(x.dtype, copy=False),
            grad_boxes=grad_boxes,
        )
