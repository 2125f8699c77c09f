"""Depth-wise box convolution: separable forward, analytic backward.

One box per channel, all of one variant and window size. The layer keeps
its boxes as (C, ...) arrays and compiles them in one boxes.compile_plan
call into one plan: every channel's cell floors, fractions and folded site
coefficients as arrays. Each route derives what it reads from those on
first use and keeps it in the plan: the banded route its matrices, the
table engine the taps factored into terms, its y taps in the order they
are added, and the layer's table margins. Inputs are (C, H, W) or a batch
(N, C, H, W); every sample is computed exactly as it would be on its own.
A box's compiled lattice taps read a summed-area table, and they factor
exactly into a few terms of x taps times y taps.

Two routes compute the same filter, chosen by plane size: planes whose
larger side is at most BANDED_MAX_SIDE pixels take banded matrix
products, larger ones the table engine.

The banded route is banded.py. Its products cost O(h + w) multiply-adds
per output pixel, against the table engine's fixed count, but far fewer
NumPy calls. Measured with one BLAS thread on 4 samples of 4 k=9
channels, forward plus backward took 0.34 ms on the banded route against
1.2 ms on the table engine at 32^2, 6.5 against 9.2 ms at 96^2, and 11.4
against 9.9 ms at 112^2; hence BANDED_MAX_SIDE. A channel whose input
holds NaN or inf, or whose banded output overflows float64, is rejected
by name.

The table engine works on one plane, one sample's channel, at a time, in
strips of as many input rows as fit in STRIP_BYTES (a plane that fits is
one strip; 256^2 and 1024^2 planes go in strips of 128 and 32 rows). Per
plane go the prefix sums, the column-sum scan, the finiteness checks, the
cotangent's table and its edge pad, the corner products, and the x and y
tap passes of that channel's box.

Forward applies the taps one axis at a time and never builds the table:
it takes each input row's prefix sums along x, applies each term's x taps,
runs the column sums of those values down the rows in one scan over every
term (a strip carries its last row over to the next), and adds each y tap
into the output rows it reaches. Every output pixel's sample coordinates
share their fractional parts, so the tap weights are constant over the
whole plane. Out-of-range reads are resolved by edge replication: a zero
left margin and the row total right of the prefix sums, no rows above the
first and the final column sums below the last, which reproduces
zero-padding of the source exactly. The y taps reach every output pixel
in one fixed (offset, term) order, so the output does not depend on the
strip height.
The column sums grow with a box's width, not with the whole plane's, so
the four-corner differences lose far less precision than on a table. A
channel whose row prefix sums or column sums are not finite (NaN or inf in
the input, or sums that overflow float64) is rejected, by name: one bad
pixel would spoil every output below it whose box reaches its column.

Backward is box forward run on the cotangent, read through flipped views.
Flipped along both axes, each plane's cotangent gets its summed-area table
T, built in one call into an edge-replicated buffer. The mirrored box
filter of the cotangent, which is the input gradient, is then the plan's
terms applied to T: each term's x taps on T's rows, whose entries already
are column sums, then the same y-tap pass as forward's, written over the
rows of T the x taps have read and copied once into a flipped view of the
input gradient. Forward keeps only its input for backward. Three gradient
families come out:

* input: the x then y taps on T, as above;
* box coordinates: every sample site's value and coordinate derivatives
  are linear in four scalars, the inner products of the output cotangent
  with the input's table read at each corner of the site's lattice cell.
  Each such product equals the inner product of the flipped input with T
  read at the same corner, so backward takes one product per plane and
  distinct lattice corner of the plan's cells (sites sharing a corner
  share it), as one dot product per row, one matmul per run of adjacent
  corners, into one array summed once per plane. It then blends them, for
  all channels at once, with each site's constant interpolation fractions;
  the site derivative, weighted by its folded coefficient, moves exactly
  one normalized parameter, with the window half-width as chain factor.
  Sites whose reads fall in the replicated margin see equal corner
  products and so contribute zero, matching the convention that clamped
  coordinates have zero gradient;
* sub-box weights: the four-corner difference of the sub-box's site
  values, each value being the bilinear blend of its corner products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import banded
from .boxes import BoxParams, CornerSamplePlan, box_arrays, compile_plan
from .fmap import DimensionError, as_feature_map
from .sat import build_sat, sat_backward  # sat_backward: only perfbench's tracer reads it here

# Bytes of input rows per strip of a plane. With each term's buffer rows
# and the output rows a strip's y taps reach (about one box height more),
# a strip's working set stays inside a 2 MB L2 cache on 1024-wide planes.
STRIP_BYTES = 256 * 1024
# Planes whose larger side is at most this many pixels take the banded
# matrix route, larger ones the table engine; measured, see the module
# docstring.
BANDED_MAX_SIDE = 96


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
    plan: CornerSamplePlan


def _strip_rows(h, w):
    """Input rows per strip of an (h, w) plane: as many as fit in
    STRIP_BYTES, at least one, all h where the whole plane fits."""
    return max(1, min(h, STRIP_BYTES // (8 * w)))


def _edge_pad(padded, top, left, h, w):
    """Edge-replicate the (h+1, w+1) table at (top, left) of padded into its margins."""
    rows = slice(top, top + h + 1)
    # np.pad(mode="edge") makes the same array at several times the cost
    padded[rows, :left] = padded[rows, left : left + 1]
    padded[rows, left + w + 1 :] = padded[rows, left + w : left + w + 1]
    padded[:top] = padded[top : top + 1]
    padded[top + h + 1 :] = padded[top + h : top + h + 1]


def _site_terms(q, plan):
    """Site values and coordinate derivatives, blended from corner products.

    q is (n, C, nx, 2, ny, 2): q[..., c, ix, i, iy, j] is the product at the
    corner (x0 + i, y0 + j) of channel c's x cell ix and y cell iy, per
    sample. Returns every site's value (n, C, nx, ny) and the
    coefficient-weighted derivative sums per x site (n, C, nx) and per y
    site (n, C, ny), each summed in site order.
    """
    c, nx, ny = plan.coeffs.shape
    a, b = plan.x_frac.reshape(c, nx, 1, 1, 1), plan.y_frac.reshape(c, 1, 1, ny, 1)
    wx, wy = np.concatenate((1 - a, a), axis=2), np.concatenate((1 - b, b), axis=4)
    p = wx * wy * q  # the products (1 - a) * (1 - b) * q00, a * (1 - b) * q10, ...
    values = p[..., 0, :, 0] + p[..., 1, :, 0] + p[..., 0, :, 1] + p[..., 1, :, 1]
    t = wy[:, :, 0] * (q[..., 1, :, :] - q[..., 0, :, :])  # (1 - b) * (q10 - q00), b * (q11 - q01)
    dx = plan.coeffs * (t[..., 0] + t[..., 1])
    t = wx[..., 0] * (q[..., 1] - q[..., 0])  # (1 - a) * (q01 - q00), a * (q11 - q10)
    dy = plan.coeffs * (t[..., 0, :] + t[..., 1, :])
    return values, sum(dx[..., j] for j in range(ny)), sum(dy[..., i, :] for i in range(nx))


def _x_pass(xs, src, s0, dst, d0, m, left, w):
    """Columns 0..w of dst rows d0 .. d0 + m get the x taps xs, (dx, weight)
    in order, of src rows s0 .., each tap read from column left + dx.

    Arrays of one width go as one flat run of entries, from the first row's
    first column to the last row's column w, which also covers the columns
    past w of every row but the last: one contiguous pass. Arrays of two
    widths go as strided slices.
    """
    width = dst.shape[-1]
    if src.shape[-1] == width:
        size = (m - 1) * width + w
        u = dst.reshape(-1)[d0 * width : d0 * width + size]
        flat, start = src.reshape(-1), s0 * width + left
        taps = [(flat[start + dx : start + dx + size], wt) for dx, wt in xs]
    else:
        u = dst[d0 : d0 + m, :w]
        taps = [(src[s0 : s0 + m, left + dx : left + dx + w], wt) for dx, wt in xs]
    (r, wt), *rest = taps
    np.multiply(r, wt, out=u)
    for r, wt in rest:
        u += wt * r


def _y_pass(taps, src, dst, p0, m, h, last, w):
    """Add one channel's y taps of the table rows new in a strip into its output.

    The table has h + 1 rows, row 0 all zero; the strip's new rows are
    p0 + 1 .. p0 + m. src[t] holds term t's x-tapped table row p0 + j at its
    row j, and in the last strip the final row repeated below, as far as
    the taps reach. Output row i is row i of dst and gets each tap (dy, t,
    weight) of table row i + dy once, from the strip that holds that row;
    rows above the table are zero and are skipped. The taps run in
    (offset, term) order in every strip, so each pixel gets the same sums
    in the same order at any strip height. src[t] and dst are of one
    width: a tap is one flat run, as in _x_pass.
    """
    width = dst.shape[-1]
    out, flat = dst.reshape(-1), src.reshape(len(src), -1)
    for dy, t, wt in taps:
        i0 = max(0, p0 + 1 - dy)
        i1 = h if last else min(h, p0 + m + 1 - dy)
        if i0 < i1:
            size, j = (i1 - i0 - 1) * width + w, i0 + dy - p0
            out[i0 * width : i0 * width + size] += wt * flat[t, j * width : j * width + size]


def _forward_plane(x, plan, c, out, rows) -> bool:
    """Box-filter the (H, W) plane x of channel c into out, by strips of the
    given input rows.

    Each strip's prefix sums along x go into rsum, with a table row's zero
    left margin and edge-replicated right margin. Each term's x taps read
    them and write into the term's cs rows, below its row 0, which carries
    the column sums of the table row above the strip. One scan down the
    rows, one row-wise add for every term, turns the rows into the column
    sums of the strip's table rows, and the y taps add them into out.

    Returns False, before any y tap reads them, as soon as a strip's row
    totals (its last prefix sums) or its last column sums are not finite. A
    running sum stays non-finite once it is, so those values are finite
    exactly when every prefix and column sum so far is.
    """
    h, w = x.shape
    left, right, _, bottom = plan.margins
    terms = plan.terms[c]
    cs = np.zeros((len(terms), 1 + rows + bottom, w))
    scan = cs.transpose(1, 0, 2)  # the column sums run down rows of every term
    rsum = np.zeros((rows, left + w + 1 + right))
    out[...] = 0.0
    for p0 in range(0, h, rows):
        m = min(rows, h - p0)
        last = p0 + m == h
        r = rsum[:m]
        np.cumsum(x[p0 : p0 + m], axis=-1, dtype=np.float64, out=r[:, left + 1 : left + w + 1])
        if not np.isfinite(r[:, left + w]).all():
            return False
        r[:, left + w + 1 :] = r[:, left + w : left + w + 1]
        if p0:
            cs[:, 0] = cs[:, rows]
        for t, (xs, _) in enumerate(terms):
            _x_pass(xs, rsum, 0, cs[t], 1, m, left, w)
        for j in range(m):
            scan[j + 1] += scan[j]
        if not np.isfinite(cs[:, m]).all():
            return False
        if last:
            cs[:, m + 1 : m + 1 + bottom] = cs[:, m : m + 1]
        _y_pass(plan.y_taps[c], cs, out, p0, m, h, last, w)
    return True


def _table_plane(table, plan, c, rows):
    """Channel c's terms on its table, written over it.

    table is edge-replicated, entry (0, 0) at (top, left) of the plan's
    margins, with every row and column the taps read. A strip's x taps read
    table rows p0 + 1 .., which already hold the column sums forward runs
    down its strips, and in the last strip the rows of the bottom margin
    too. Output row i goes to row i, columns 0..W, of the table: rows the x
    taps have read, zeroed strip by strip. A strip's y taps reach output
    rows at most `top` past its last table row, and table row r sits in row
    top + r, so no strip writes a row that a later strip reads.
    """
    hp, wp = table.shape
    left, right, top, bottom = plan.margins
    h, w = hp - top - 1 - bottom, wp - left - 1 - right
    xt = np.zeros((len(plan.terms[c]), 1 + rows + bottom, wp))
    spent = 0  # rows of the table that no later x tap reads
    for p0 in range(0, h, rows):
        m = min(rows, h - p0)
        last = p0 + m == h
        for t, (xs, _) in enumerate(plan.terms[c]):
            _x_pass(xs, table, top + 1 + p0, xt[t], 1, m + bottom * last, left, w)
        table[spent : top + p0 + m + 1 + bottom * last] = 0.0
        spent = top + p0 + m + 1
        _y_pass(plan.y_taps[c], xt, table, p0, m, h, last, w)


def _corner_products(x, table, plan, c, prods):
    """Products of the flipped input with the table read at cell corners.

    x is the (H, W) input plane of channel c, and table its cotangent's
    table as in _table_plane. prods[ky, kx] gets the product at channel c's
    distinct corner (x number kx, y number ky): the sum of H row dots, one
    matmul per pair of runs of consecutive corners. Each dot is one BLAS
    call over W values: that skips the margins, and keeps each dot below
    the 10000 values past which OpenBLAS splits it over threads (its sums
    then depend on the thread count; on a 2-core host an idle pool took
    6 ms to wake).
    """
    h, w = x.shape
    left, _, top, _ = plan.margins
    sr, sc = table.strides
    xf = np.empty((h, 1, w))  # the flipped input, one row per dot product
    xf[:, 0] = x[::-1, ::-1]
    # zero: a channel with fewer distinct corners leaves the rest unwritten
    dots = np.zeros(prods.shape + (h, 1, 1))
    for ky, y0, ly in plan.y_runs[c]:
        for kx, x0, lx in plan.x_runs[c]:
            corners = np.ndarray((ly, lx, h, w, 1), table.dtype, table,
                                 (top + y0) * sr + (left + x0) * sc, (sr, sc, sr, sc, sc))
            np.matmul(xf, corners, out=dots[ky : ky + ly, kx : kx + lx])
    np.sum(dots[..., 0, 0], axis=-1, out=prods)


def _table_forward(xb, plan):
    """The (n, c, h, w) planes xb box-filtered by the table engine, plane by
    plane, channels outer: a failing plane names the first bad channel."""
    n, c, h, w = xb.shape
    out = np.empty(xb.shape)
    rows = _strip_rows(h, w)
    for k in range(c):
        for i in range(n):
            if not _forward_plane(xb[i, k], plan, k, out[i, k], rows):
                raise _non_finite(k)
    return out


def _table_backward(xb, gb, plan):
    """banded.backward's results by the table engine, of the input xb and
    the cotangent gb of its output, plane by plane."""
    n, c, h, w = xb.shape
    # before the buffers below: allocated after them, it let the peak RSS
    # of boxconv_train_256 grow by 8 MB in 5 of 10 runs (heap layout)
    grad_input = np.empty(xb.shape)
    left, right, top, bottom = plan.margins
    rows = _strip_rows(h, w)
    table = np.empty((top + h + 1 + bottom, left + w + 1 + right))
    prods = np.empty((n, c, 2 * plan.y_floor.shape[1], 2 * plan.x_floor.shape[1]))
    for k in range(c):
        for i in range(n):
            # the table of the flipped cotangent
            build_sat(gb[i, k, ::-1, ::-1], out=table[top : top + h + 1, left : left + w + 1])
            _edge_pad(table, top, left, h, w)

            # parameter path: <flip(x), table read at (dx, dy)> per corner
            # of the channel's cells, summed over the rows
            _corner_products(xb[i, k], table, plan, k, prods[i, k])

            # input path: the channel's terms on its table, flipped back
            _table_plane(table, plan, k, rows)
            grad_input[i, k, ::-1, ::-1] = table[:h, :w]

    # every cell corner's product, per sample, in _site_terms' order
    values, gx, gy = _site_terms(prods.reshape(n, -1)[:, plan.corner_index], plan)
    sw = np.stack([values[..., ixh, iyh] - values[..., ixl, iyh] - values[..., ixh, iyl]
                   + values[..., ixl, iyl] for ixl, ixh, iyl, iyh in plan.sub_boxes], axis=-1)
    return grad_input, gx, gy, sw


def _non_finite(c):
    return ValueError(f"channel {c}: input holds NaN or inf, or its sums overflow float64")


def _banded_forward(xb, plan):
    """banded.forward, rejecting a channel whose input is not finite or
    whose output overflows float64."""
    ok = np.isfinite(xb).all(axis=(0, 2, 3))
    if ok.all():
        out = banded.forward(xb, plan)
        ok = np.isfinite(out).all(axis=(0, 2, 3))
    if not ok.all():
        raise _non_finite(int(np.argmin(ok)))
    return out


class BoxConvLayer:
    """Depth-wise layer pairing each input channel with one learnable box.

    The layer owns its boxes as arrays, one row per channel: theta (C, 4),
    split (C, s) and weight (C, w), all of one window size max_kernel and
    one variant. Whoever changes them in place calls recompile() before the
    next forward. The output has the input's shape.
    """

    def __init__(self, boxes):
        boxes = list(boxes)
        if not boxes:
            raise DimensionError("layer needs at least one box")
        for field in ("max_kernel", "variant"):
            values = {getattr(p, field) for p in boxes}
            if len(values) != 1:
                raise DimensionError(f"all boxes in a layer must share {field}, got {values}")
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
        """Compile the arrays into a new plan."""
        self.plan = compile_plan(self.theta, self.split, self.weight, self.max_kernel, self.variant)

    def multadd_count(self, in_shape) -> int:
        """The paper's lattice-tap count: multiply-adds of the folded taps.

        This is the 16-per-pixel cost model of a single box, excluding the
        prefix sums. The table engine applies the same taps factored, as x
        taps then y taps (CornerSamplePlan.terms); the banded route's
        products cost more per pixel, but far fewer NumPy calls.
        """
        *lead, _, h, w = in_shape
        return int(np.prod(lead, dtype=np.int64)) * h * w * int(self.plan.n_taps.sum())

    def forward(self, x):
        x = as_feature_map(x)
        if x.shape[-3] != self.channels:
            raise DimensionError(f"input has {x.shape[-3]} channels, layer has {self.channels}")
        plan = self.plan
        xb = x.reshape((-1,) + x.shape[-3:])  # a rank-3 input is one sample
        small = max(xb.shape[-2:]) <= BANDED_MAX_SIDE
        out = (_banded_forward if small else _table_forward)(xb, plan)
        return (np.ascontiguousarray(out.reshape(x.shape), dtype=x.dtype),
                BoxConvSaved(x=x, plan=plan))

    def backward(self, saved: BoxConvSaved, grad_output) -> LayerGradients:
        x, plan = saved.x, saved.plan
        g = np.asarray(grad_output, dtype=np.float64)
        if g.shape != x.shape:
            raise DimensionError(f"grad_output shape {g.shape} != forward output {x.shape}")
        xb, gb = x.reshape((-1,) + x.shape[-3:]), g.reshape((-1,) + g.shape[-3:])
        small = max(xb.shape[-2:]) <= BANDED_MAX_SIDE
        grad_input, gx, gy, sw = (banded.backward if small else _table_backward)(xb, gb, plan)
        r = (plan.max_kernel - 1) / 2
        theta = np.stack([gx[..., 0], gx[..., -1], gy[..., 0], gy[..., -1]], axis=-1) * r
        # a split line is the middle site on its axis
        split = [sites[..., 1] * r for sites in (gx, gy) if sites.shape[-1] == 3]
        split = np.stack(split, axis=-1) if split else np.zeros(theta.shape[:-1] + (0,))
        lead = x.shape[:-3]  # () for a rank-3 input: its one sample's gradients
        grads = BoxGrads(*(a.reshape(lead + a.shape[1:]) for a in (theta, split, sw)))
        return LayerGradients(grad_input.reshape(x.shape).astype(x.dtype, copy=False), grads)
