"""Depth-wise box convolution: separable forward, analytic backward.

One box per channel, all of one variant and window size. The layer keeps
its boxes as (C, ...) arrays and compiles them in one boxes.compile_plan
call into one plan: every channel's cell floors, fractions and folded site
coefficients as arrays, and its taps factored into terms. Inputs are
(C, H, W) or a batch (N, C, H, W); every sample is computed exactly as it
would be on its own. A box's compiled lattice taps read a summed-area
table, and they factor exactly into a few terms of x taps times y taps.
Forward applies them one axis at a time and never builds the table: in
strips of input rows, it takes each row's prefix sums along x, applies
each term's x taps, runs the column sums of those values down the strip
(carrying the last row over from the strip before), and adds each y tap
into the output rows it reaches. Every output pixel's sample coordinates
share their fractional parts, so the tap weights are constant over the
whole plane. This is a stride-1 filter; a strided layer keeps every
stride-th row and column of its output. Out-of-range reads are resolved by
edge replication: a zero left margin and the row total right of the prefix
sums, no rows above the first and the final column sums below the last,
which reproduces zero-padding of the source exactly. The y taps reach
every output pixel in one fixed (offset, term) order, so the output does
not depend on the strip height. The column sums grow with a box's width,
not with the whole plane's, so the four-corner differences lose far less
precision than on a table. A channel whose row prefix sums or column sums
are not finite (NaN or inf in the input, or sums that overflow float64) is
rejected: one bad pixel would spoil every output below it whose box
reaches its column.

Backward is box forward run on the cotangent, read through flipped views.
Placed on the input grid (stride-spaced, zeros between) and flipped along
both axes, each channel's cotangent gets one summed-area table T, built
into an edge-replicated buffer shared by all channels of the call. The
mirrored box filter of the cotangent, which is the input gradient, is then
the plan's terms applied to T: each term's x taps on a strip of T's rows,
whose entries already are column sums, then the same y-tap pass as
forward's, into one plane that is copied once into a flipped view of the
channel's input gradient. Forward keeps only its input for backward. Three
gradient families come out:

* input: the x then y taps on T, as above;
* box coordinates: every sample site's value and coordinate derivatives
  are linear in four scalars, the inner products of the output cotangent
  with the input's table read at each corner of the site's lattice cell.
  Each such product equals the inner product of the flipped input with T
  read at the same corner, so backward takes one product per sample and
  distinct lattice corner of the plan's cells (sites sharing a corner
  share it), as one dot product per row. It then blends them, for all
  channels at once, with each site's constant interpolation fractions;
  the site derivative, weighted by its folded coefficient, moves exactly
  one normalized parameter, with the window half-width as chain factor.
  Sites whose reads fall in the replicated margin see equal corner
  products and so contribute zero, matching the convention that clamped
  coordinates have zero gradient;
* sub-box weights: the four-corner difference of the sub-box's site
  values, each value being the bilinear blend of its corner products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import BoxParams, CornerSamplePlan, box_arrays, compile_plan
from .fmap import DimensionError, as_feature_map
from .sat import build_sat, sat_backward  # sat_backward: only perfbench's tracer reads it here

# Bytes of rows, over all samples, per strip: input rows in forward, rows of
# the cotangent's table in backward. With each term's buffer rows and the
# output rows a strip's y taps reach (about one box height more), its
# working set stays inside a 2 MB L2 cache on 1024-wide planes.
STRIP_BYTES = 256 * 1024

# Strip rows of fewer values than this (over samples and terms) get their
# column sums from one np.cumsum; longer ones from one add per row, which
# runs at about a third of np.cumsum's cost per value.
_ROW_ADD_MIN = 256


@dataclass
class BoxGrads:
    """Box parameter gradients, named as the layer arrays they belong to.

    Shapes are (..., 4) for theta's edges (xl, xh, yl, yh), (..., n_splits)
    for split and (..., n_weights) for weight, with the input's batch axis
    leading when it has one (and a channel axis before the last when they
    hold a whole layer's boxes). weight is there for every variant, a single
    box's too, whose weight does not train (boxes.TRAINED).
    """

    theta: np.ndarray
    split: np.ndarray
    weight: np.ndarray


@dataclass
class LayerGradients:
    """The input gradient, and every box's parameter gradients stacked on a
    channel axis: boxes.theta is (..., C, 4), and so on."""

    grad_input: np.ndarray
    boxes: BoxGrads

    @property
    def grad_boxes(self) -> list:
        """One BoxGrads per channel, views of the stacked arrays."""
        b = self.boxes
        return [BoxGrads(b.theta[..., c, :], b.split[..., c, :], b.weight[..., c, :])
                for c in range(b.theta.shape[-2])]


@dataclass
class BoxConvSaved:
    """Forward state retained for the backward pass."""

    x: np.ndarray  # the input, (C, H, W) or (N, C, H, W)
    out_shape: tuple
    stride: int
    plan: CornerSamplePlan


def _margins(floor):
    """Lattice entries a table axis of n+1 entries lacks before and after it.

    floor holds the cell floors of the sites on that axis (one channel's, or
    an array of several); output i < n reads entries floor + i and
    floor + 1 + i, so what lies past the last entry does not depend on n.
    """
    lo = floor.ravel().tolist()
    return max(0, -min(lo)), max(0, max(lo))


def _edge_pad(padded, top, left, h, w):
    """Edge-replicate the (..., h+1, w+1) tables at (top, left) of padded into its margins."""
    rows = slice(top, top + h + 1)
    # np.pad(mode="edge") makes the same array at several times the cost
    padded[..., rows, :left] = padded[..., rows, left : left + 1]
    padded[..., rows, left + w + 1 :] = padded[..., rows, left + w : left + w + 1]
    padded[..., :top, :] = padded[..., top : top + 1, :]
    padded[..., top + h + 1 :, :] = padded[..., top + h : top + h + 1, :]


def _site_terms(q, plan):
    """Site values and coordinate derivatives, blended from corner products.

    q is (2 nx, 2 ny, ..., C): q[2 ix + i, 2 iy + j] is the product at the
    corner (x0 + i, y0 + j) of x cell ix and y cell iy, one per sample and
    channel. Returns every site's value (nx, ny, ..., C) and the
    coefficient-weighted derivative sums per x site (nx, ..., C) and per y
    site (ny, ..., C), each summed in site order.
    """
    extra = (1,) * (q.ndim - 3) + plan.coeffs.shape[:1]
    a = plan.x_frac.T.reshape((-1, 1) + extra)
    b = plan.y_frac.T.reshape((1, -1) + extra)
    coeff = np.moveaxis(plan.coeffs, 0, -1).reshape(a.shape[:1] + b.shape[1:2] + extra)
    q00, q10, q01, q11 = q[::2, ::2], q[1::2, ::2], q[::2, 1::2], q[1::2, 1::2]
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


class _YTaps:
    """Channel c's y taps, from per-term buffers of x-tapped table rows into out.

    The table has h + 1 rows, row 0 all zero. out is (..., h, width), or any
    view of it, and is zeroed here; output row i reads the table rows around
    i. A strip's buffer csum[t] holds term t's x taps of table rows p0 ..
    p0 + n in its rows 0..n, with room for `below` more. add() adds each y
    tap (offset dy) of the rows new in the strip to the output rows i with
    i + dy in p0 + 1 .. p0 + n; rows above the table are zero and are
    skipped, and rows below it, reached only from the last strip, repeat its
    final row. The taps run in (offset, term) order in every strip, so each
    pixel gets the same sums in the same order at any strip height.
    """

    def __init__(self, plan, c, h, out):
        self.h, self.out = h, out
        self.below = _margins(plan.y_floor[c])[1]  # table rows past the last
        self.taps = sorted((dy, t, wt) for t, (_, ys) in enumerate(plan.terms[c]) for dy, wt in ys)
        out[...] = 0.0

    def add(self, csum, p0, n):
        end = p0 + n + 1  # table rows p0 + 1 .. end - 1 are new in this strip
        if end > self.h:
            csum[..., n + 1 :, :] = csum[..., n : n + 1, :]
            end += self.below
        for dy, t, wt in self.taps:
            i0, i1 = max(0, p0 + 1 - dy), min(self.h, end - dy)
            if i0 < i1:
                j0 = i0 + dy - p0  # the strip row output row i0 reads
                self.out[..., i0:i1, :] += wt * csum[t, ..., j0 : j0 + i1 - i0, :]


def _separable_channel(x, plan, c, out) -> bool:
    """Box-filter channel c's (..., H, W) planes x into out, by strips.

    out is the channel's (..., H, W) output, or any view of it. A strip
    holds the input rows that fill STRIP_BYTES over all samples. Their
    prefix sums along x go into a buffer with the zero left margin and the
    edge-replicated right margin of a table row. Each term's x taps read it
    and write one row per input row into that term's buffer, whose row 0
    carries the column sums of the table row above the strip; the running
    sums then turn row j into the column sums of table row p0 + j, and
    _YTaps adds them into the output. The buffers keep a strip row's values
    adjacent over samples and terms, so each row-wise add is one contiguous
    pass.

    Returns False, before any y tap reads them, as soon as a strip's row
    totals (its last prefix sums) or its last column sums are not finite. A
    running sum stays non-finite once it is, so those values are finite
    exactly when every prefix and column sum so far is.
    """
    lead, (h, w) = x.shape[:-2], x.shape[-2:]
    left, right = _margins(plan.x_floor[c])
    terms = plan.terms[c]
    ytaps = _YTaps(plan, c, h, out)
    rows = max(1, min(h, STRIP_BYTES // (8 * w * math.prod(lead))))
    _, rsum = _rows_outer(lead + (rows, left + w + 1 + right))
    # crow[j] is the strip's row j over all terms and samples; csum views it per term
    crow, csum = _rows_outer((len(terms),) + lead + (rows + 1 + ytaps.below, w))
    row_adds = crow[0].size >= _ROW_ADD_MIN
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
            np.multiply(r[..., left + dx : left + dx + w], wt, out=u)
            for dx, wt in rest:
                u += wt * r[..., left + dx : left + dx + w]
        if row_adds:
            for j in range(n):
                crow[j + 1] += crow[j]
        else:
            np.cumsum(crow[: n + 1], axis=0, out=crow[: n + 1])
        if not np.isfinite(crow[n]).all():
            return False
        ytaps.add(csum, p0, n)
        crow[0] = crow[n]
    return True


def _table_channel(padded, top, left, plan, c, out):
    """Channel c's terms on (..., H+1, W+1) tables, by strips, into out.

    padded holds the tables edge-replicated, entry (0, 0) at (top, left),
    with every column the x taps read and a row to spare below the last.
    out is (..., H, width), width being padded's: its first W columns get
    the result. A strip's x taps read table rows p0 + 1 .. p0 + n, which
    already hold the column sums forward runs down its strips. Each x tap
    is one flat pass over whole rows of padded width into the
    term's buffer, and each y tap one pass over whole rows of it: a row
    runs on into the margin and the next row, read only by cut-off columns.
    """
    lead, (h, width) = out.shape[:-2], out.shape[-2:]
    terms = plan.terms[c]
    ytaps = _YTaps(plan, c, h, out)
    rows = max(1, min(h, STRIP_BYTES // (8 * width * math.prod(lead))))
    csum = np.zeros((len(terms),) + lead + (rows + 1 + ytaps.below, width))
    flat = padded.reshape(lead + (-1,))
    for p0 in range(0, h, rows):
        n = min(rows, h - p0)
        start, size = (top + p0 + 1) * width + left, n * width
        for t, (xs, _) in enumerate(terms):
            u = csum[t, ..., 1 : n + 1, :].reshape(lead + (size,))
            (dx, wt), *rest = xs
            np.multiply(flat[..., start + dx : start + dx + size], wt, out=u)
            for dx, wt in rest:
                u += wt * flat[..., start + dx : start + dx + size]
        ytaps.add(csum, p0, n)


class BoxConvLayer:
    """Depth-wise layer pairing each input channel with one learnable box.

    The layer owns its boxes as arrays, one row per channel: theta (C, 4),
    split (C, s) and weight (C, w), all of one window size max_kernel and
    one variant. Whoever changes them in place calls recompile() before the
    next forward.
    """

    def __init__(self, boxes, stride: int = 1):
        boxes = list(boxes)
        if not boxes:
            raise DimensionError("layer needs at least one box")
        if int(stride) != stride or stride < 1:
            raise ValueError(f"stride must be a positive integer, got {stride}")
        for field in ("max_kernel", "variant"):
            values = {getattr(p, field) for p in boxes}
            if len(values) != 1:
                raise DimensionError(f"all boxes in a layer must share {field}, got {values}")
        self.stride = int(stride)
        self.max_kernel, self.variant = boxes[0].max_kernel, boxes[0].variant
        self.theta, self.split, self.weight = box_arrays(boxes, self.variant)
        self.recompile()

    @property
    def channels(self) -> int:
        return self.theta.shape[0]

    @property
    def boxes(self) -> list:
        """A fresh BoxParams per channel, read from the arrays: for box files,
        pictures and the oracle."""
        k, v = self.max_kernel, self.variant
        return [BoxParams(*t, k, v, s, w) for t, s, w in
                zip(self.theta.tolist(), self.split.tolist(), self.weight.tolist())]

    def recompile(self) -> None:
        self.plan = compile_plan(self.theta, self.split, self.weight, self.max_kernel, self.variant)

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
        return int(np.prod(lead, dtype=np.int64)) * out_h * out_w * int(self.plan.n_taps.sum())

    def forward(self, x):
        x = as_feature_map(x)
        if x.shape[-3] != self.channels:
            raise DimensionError(f"input has {x.shape[-3]} channels, layer has {self.channels}")
        plan, s = self.plan, self.stride
        out = np.empty(x.shape, dtype=np.float64)
        for c in range(self.channels):
            if not _separable_channel(x[..., c, :, :], plan, c, out[..., c, :, :]):
                raise ValueError(
                    f"channel {c}: input holds NaN or inf, or its sums overflow float64"
                )
        saved = BoxConvSaved(x=x, out_shape=self.out_shape(x.shape), stride=s, plan=plan)
        # the stride-1 filter, subsampled: no copy at stride 1
        return np.ascontiguousarray(out[..., ::s, ::s], dtype=x.dtype), saved

    def backward(self, saved: BoxConvSaved, grad_output) -> LayerGradients:
        g = np.asarray(grad_output, dtype=np.float64)
        if g.shape != saved.out_shape:
            raise DimensionError(f"grad_output shape {g.shape} != forward output {saved.out_shape}")
        x, s, plan = saved.x, saved.stride, saved.plan
        lead, (h, w) = x.shape[:-3], x.shape[-2:]
        # before the buffers below: allocated after them, it let the peak RSS
        # of boxconv_train_256 grow by 8 MB in 5 of 10 runs (heap layout)
        grad_input = np.empty(x.shape)
        # margins for every channel's corner reads, and a spare row below
        left, right = _margins(plan.x_floor)
        top, bottom = _margins(plan.y_floor)
        width = left + w + 1 + right
        padded = np.empty(lead + (top + h + 2 + bottom, width))
        plane = np.empty(lead + (h, width))
        xf = np.empty(lead + (h, 1, w))  # the flipped input, one row per dot product
        gs = np.zeros(lead + (h, w)) if s > 1 else None  # zero off the stride grid
        (n, nx), ny = plan.x_floor.shape, plan.y_floor.shape[1]
        q = np.empty((2 * nx, 2 * ny) + lead + (n,))
        for c in range(n):
            # the cotangent placed on the input grid, and the table of its flip
            gc = g[..., c, :, :]
            if gs is not None:
                gs[..., ::s, ::s] = gc
                gc = gs
            build_sat(gc[..., ::-1, ::-1], out=padded[..., top : top + h + 1, left : left + w + 1])
            _edge_pad(padded, top, left, h, w)

            # input path: the channel's terms on the table, flipped back
            _table_channel(padded, top, left, plan, c, plane)
            grad_input[..., c, ::-1, ::-1] = plane[..., :w]

            # parameter path: <flip(x), table read at (dx, dy)> per sample and
            # distinct corner of the channel's cells, one BLAS dot per row: that
            # skips the margins, and keeps each dot below the 10000 values past
            # which OpenBLAS splits it over threads (its sums then depend on the
            # thread count; on a 2-core host an idle pool took 6 ms to wake)
            xf[..., 0, :] = x[..., c, ::-1, ::-1]
            xc = [x0 + i for x0 in plan.x_floor[c].tolist() for i in (0, 1)]
            yc = [y0 + j for y0 in plan.y_floor[c].tolist() for j in (0, 1)]
            prods = {(dx, dy): np.matmul(
                xf, padded[..., top + dy : top + dy + h, left + dx : left + dx + w, None]
            )[..., 0, 0].sum(axis=-1) for dx in set(xc) for dy in set(yc)}
            q[..., c] = [[prods[dx, dy] for dy in yc] for dx in xc]

        values, gx_sites, gy_sites = _site_terms(q, plan)
        r = (plan.max_kernel - 1) / 2
        theta = np.stack([gx_sites[0], gx_sites[-1], gy_sites[0], gy_sites[-1]], axis=-1) * r
        # a split line is the middle site on its axis
        split = [sites[1] * r for sites in (gx_sites, gy_sites) if len(sites) == 3]
        sw = np.stack([values[ixh, iyh] - values[ixl, iyh] - values[ixh, iyl] + values[ixl, iyl]
                       for ixl, ixh, iyl, iyh in plan.sub_boxes], axis=-1)
        split = np.stack(split, axis=-1) if split else np.zeros(theta.shape[:-1] + (0,))
        return LayerGradients(grad_input.astype(x.dtype, copy=False), BoxGrads(theta, split, sw))
