"""Depth-wise box convolution: separable forward, analytic backward.

One box per channel. Inputs are (C, H, W) or a batch (N, C, H, W); every
sample is computed exactly as it would be on its own. A box's compiled
lattice taps read a summed-area table, and they factor exactly into a few
terms of x taps times y taps (boxes.compile_plan). Forward applies them one
axis at a time and never builds the table: in strips of input rows, it
takes each row's prefix sums along x, applies each term's x taps at the
kept output columns only, runs the column sums of those values down the
strip (carrying the last row over from the strip before), and adds each
y tap into the output rows it reaches. Because integer strides preserve the
fractional parts of the sample coordinates, the tap weights are constant
over the whole plane. Out-of-range reads are resolved by edge replication:
a zero left margin and the row total right of the prefix sums, no rows
above the first and the final column sums below the last, which reproduces
zero-padding of the source exactly. The y taps reach every output pixel in
one fixed (offset, term) order, so the output does not depend on the strip
height. The column sums grow with a box's width, not with the whole
plane's, so the four-corner differences lose far less precision than on a
table. A channel whose row prefix sums or column sums are not finite (NaN
or inf in the input, or sums that overflow float64) is rejected: one bad
pixel would spoil every output below it whose box reaches its column.

Backward is box forward run on the cotangent, read through flipped views.
Placed on the input grid (stride-spaced, zeros between) and flipped along
both axes, each channel's cotangent gets one summed-area table T. The
mirrored box filter of the cotangent, which is the input gradient, is then
the plan's lattice taps evaluated on T at stride 1 by a strip routine,
written into a flipped view of the channel's input gradient. Forward keeps
only its input for backward. Three gradient families come out:

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

# Bytes of rows, over all samples, per strip: input rows in forward, output
# rows in backward's tap routine. With the rows of column sums and the
# output rows a forward strip's y taps reach (about one box height more),
# its working set stays inside a 2 MB L2 cache on 1024-wide planes.
STRIP_BYTES = 256 * 1024

# Strip rows of fewer values than this (over samples and terms) get their
# column sums from one np.cumsum; longer ones from one add per row, which
# runs at about a third of np.cumsum's cost per value.
_ROW_ADD_MIN = 256


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


def _rows_outer(shape):
    """Zeros of shape (..., rows, cols) with the rows axis outermost in memory.

    Returns the array and the view of it with the rows axis moved to -2.
    """
    a = np.zeros(shape[-2:-1] + shape[:-2] + shape[-1:])
    return a, a.transpose(*range(1, a.ndim - 1), 0, a.ndim - 1)


def _separable_channel(x, plan, out, stride) -> bool:
    """Box-filter one channel's (..., H, W) planes x into out, by strips.

    out is the channel's (..., out_h, out_w) output, or any view of it. A
    strip holds the input rows that fill STRIP_BYTES over all samples.
    Their prefix sums along x go into a buffer with the zero left margin
    and the edge-replicated right margin of a table row. Each term's x taps
    read it at the kept columns and write one row per input row into that
    term's buffer, whose row 0 carries the column sums of the table row
    above the strip; the running sums then turn row j into the column sums
    of table row p0 + j. Each y tap (offset dy) adds those rows to output
    rows i with i * stride + dy inside the strip; rows above the table are
    zero and are skipped, and rows below it, reached only from the last
    strip, repeat its final row. The y taps run in (offset, term) order in
    every strip, so each pixel gets the same sums in the same order at any
    strip height. The buffers keep a strip row's values adjacent over
    samples and terms, so each row-wise add is one contiguous pass.

    Returns False, before any y tap reads them, as soon as a strip's row
    totals (its last prefix sums) or its last column sums are not finite. A
    running sum stays non-finite once it is, so those values are finite
    exactly when every prefix and column sum so far is.
    """
    h, w = x.shape[-2:]
    lead = out.shape[:-2]
    out_h, out_w = out.shape[-2:]
    left, right = _margins(plan.x_cells, out_w, w, stride)
    below = _margins(plan.y_cells, out_h, h, stride)[1]  # table rows past the last
    samples = math.prod(lead)
    rows = max(1, min(h, STRIP_BYTES // (8 * w * samples)))
    terms = plan.terms
    ytaps = sorted((dy, t, wt) for t, (_, ys) in enumerate(terms) for dy, wt in ys)
    _, rsum = _rows_outer(lead + (rows, left + w + 1 + right))
    # crow[j] is the strip's row j over all terms and samples; csum views it per term
    crow, csum = _rows_outer((len(terms),) + lead + (rows + 1 + below, out_w))
    row_adds = samples * out_w * len(terms) >= _ROW_ADD_MIN
    cols = (out_w - 1) * stride + 1
    out[...] = 0.0
    for p0 in range(0, h, rows):
        n = min(rows, h - p0)
        r = rsum[..., :n, :]
        np.cumsum(x[..., p0 : p0 + n, :], axis=-1, dtype=np.float64,
                  out=r[..., left + 1 : left + w + 1])
        if not np.isfinite(r[..., left + w]).all():
            return False
        r[..., left + w + 1 :] = r[..., left + w : left + w + 1]
        for t, (xs, _) in enumerate(terms):
            u = csum[t, ..., 1 : n + 1, :]
            (dx, wt), *rest = xs
            np.multiply(r[..., left + dx : left + dx + cols : stride], wt, out=u)
            for dx, wt in rest:
                u += wt * r[..., left + dx : left + dx + cols : stride]
        if row_adds:
            for j in range(n):
                crow[j + 1] += crow[j]
        else:
            np.cumsum(crow[: n + 1], axis=0, out=crow[: n + 1])
        if not np.isfinite(crow[n]).all():
            return False
        end = p0 + n + 1  # table rows p0 + 1 .. end - 1 are new in this strip
        if end > h:
            crow[n + 1 :] = crow[n]
            end += below
        for dy, t, wt in ytaps:
            i0, i1 = max(0, -((dy - p0 - 1) // stride)), min(out_h, -((dy - end) // stride))
            if i0 < i1:
                j0 = i0 * stride + dy - p0  # the strip row output row i0 reads
                v = csum[t, ..., j0 : j0 + (i1 - i0 - 1) * stride + 1 : stride, :]
                out[..., i0:i1, :] += wt * v
        crow[0] = crow[n]
    return True


def _forward_channel(sat, plan, out, stride):
    """Evaluate one channel's lattice taps from its (..., H+1, W+1) tables into out.

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
        """The paper's lattice-tap count: multiply-adds of the folded taps.

        This is the 16-per-pixel cost model of a single box, excluding the
        prefix sums. Forward applies the same taps factored, as x taps then
        y taps (CornerSamplePlan.terms).
        """
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
            if not _separable_channel(x[..., c, :, :], plan, out[..., c, :, :], self.stride):
                raise ValueError(
                    f"channel {c}: input holds NaN or inf, or its sums overflow float64"
                )
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
