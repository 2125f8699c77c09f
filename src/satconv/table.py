"""The box layer on large planes: the table engine.

A box's lattice taps read a summed-area table, and they factor exactly
into a few terms of x taps times y taps (_terms), which the engine
applies one axis at a time. lowering derives the terms, and what the
passes below read with them, on the engine's first use of a plan.

forward and backward take a batch of planes, (N, C, H, W), and work on
one plane, one sample's channel, at a time, channels outer, so a failing
plane names the first bad channel. A plane goes in strips of as many
input rows as fit in STRIP_BYTES (a plane that fits is one strip; 256^2
and 1024^2 planes go in strips of 128 and 32 rows). Per plane go the
prefix sums, the column-sum scan, the finiteness checks, the cotangent's
table and its edge pad, the corner products, and the x and y tap passes
of that channel's box. The buffers those passes share are allocated once
per call, here.

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
T, built in one call (the caller's build_sat) into an edge-replicated
buffer. The mirrored box filter of the cotangent, which is the input
gradient, is then the terms applied to T: each term's x taps on T's
rows, whose entries already are column sums, then the same y-tap pass as
forward's, into a buffer of the plane's rows that is copied once into a
flipped view of the input gradient. Both passes run one x-tap routine
(_x_taps): each tap is a (rows, W) slice of wider rows, forward's prefix
sums or T's, and every buffer after it is W wide, so a wider margin adds
no work to the taps; it still lengthens _edge_pad's fill and the rows the
corner dots stride over. Forward keeps only its input for backward. Three
gradient families come out:

* input: the x then y taps on T, as above;
* box coordinates: every sample site's value and coordinate derivatives
  are linear in four scalars, the inner products of the output cotangent
  with the input's table read at each corner of the site's lattice cell.
  Each such product equals the inner product of the flipped input with T
  read at the same corner, so backward takes one product per plane and
  distinct lattice corner of the plan's cells (sites sharing a corner
  share it), as one dot product per row, one matmul per run of adjacent
  corners, into one array summed once per plane. It then blends them, for
  all channels at once, with each site's constant interpolation fractions
  and folded coefficient (_site_terms). Sites whose reads fall in the
  replicated margin see equal corner products and so contribute zero,
  matching the convention that clamped coordinates have zero gradient;
* sub-box weights: the four-corner difference of the sub-box's site
  values, each value being the bilinear blend of its corner products.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .fmap import non_finite_channel

# Bytes of input rows per strip of a plane. With each term's buffer rows
# and the output rows a strip's y taps reach (about one box height more),
# a strip's working set stays inside a 2 MB L2 cache on 1024-wide planes.
STRIP_BYTES = 256 * 1024


def _strip_rows(h, w):
    """Input rows per strip of an (h, w) plane: as many as fit in
    STRIP_BYTES, at least one, all h where the whole plane fits."""
    return max(1, min(h, STRIP_BYTES // (8 * w)))


# A site reads cells floor + _CELL_STEP with shares frac * _SHARE_SLOPE + _SHARE_AT_0,
# that is 1 - frac and frac.
_CELL_STEP = np.array([0, 1])
_SHARE_SLOPE, _SHARE_AT_0 = np.array([-1.0, 1.0]), np.array([1.0, 0.0])


def _lattice_taps(floor, frac, coefs, k):
    """The lattice taps of factors sum_i coefs[i] * (site i's interpolated value).

    floor and frac are the (C, S) site floors and fractions of C boxes in a
    window of size k, coefs the (F, C, S) site coefficients of F factors.
    Returns, factor by factor and box by box, a tuple of (offset, weight)
    pairs: offsets in order, each weight summed from 0.0 in site order,
    exact zeros dropped.
    """
    f, c, _ = coefs.shape
    r, width = (k - 1) // 2, k + 2  # a site lies in [-r, r + 1], its upper cell at most r + 2
    origin = np.arange(r, r + f * c * width, width).reshape(f, c, 1, 1)  # offset 0 of each row
    acc = np.zeros(f * c * width)
    # unbuffered, in index order: each cell adds its sites' shares in site order
    np.add.at(acc, (origin + floor[..., None] + _CELL_STEP).ravel(),
              (coefs[..., None] * (frac[..., None] * _SHARE_SLOPE + _SHARE_AT_0)).ravel())
    nz = np.flatnonzero(acc)
    row, col = np.divmod(nz, width)
    taps = zip((col - r).tolist(), acc[nz].tolist())
    return [tuple(islice(taps, n)) for n in np.bincount(row, minlength=f * c).tolist()]


def _terms(plan):
    """Every box's taps as a sum of (x taps) x (y taps) terms.

    A sub-box is an x difference times a y difference, so the sub-boxes
    over one y interval make one term: the interval's x-site coefficients
    (plan.cx) as x taps, times the unit difference across it as y taps.
    That is banded.py's grouping: one term for a single or split_v box,
    two for a split_h or split_4 box, whatever the weights. A term that
    folds to no taps is left out.
    """
    (c, _, g), k = plan.cx.shape, plan.max_kernel
    units = np.eye(g, g + 1, 1) - np.eye(g, g + 1)  # row g: -1 at site g, +1 at site g + 1
    taps = _lattice_taps(plan.x_floor, plan.x_frac, plan.cx.transpose(2, 0, 1), k)
    unit = _lattice_taps(plan.y_floor, plan.y_frac,
                         np.broadcast_to(units[:, None], (g, c, g + 1)), k)
    pairs = list(zip(taps, unit))  # pair j * c + i: box i's interval j
    return [tuple((a, b) for a, b in pairs[i::c] if a and b) for i in range(c)]


def _corner_runs(floors):
    """Each row's lattice corners on one axis, floor and floor + 1 per site.

    floors is the (C, S) site floors of C rows. Returns the numbers of each
    row's corners among its distinct ones in order, as a (C, 2 S) array,
    and per row the distinct corners as runs of consecutive offsets, each a
    (first number, first offset, length) tuple. Keyed apart by a gap of at
    least 2 between rows, every row's corners go through one np.unique,
    whose sorted keys break into runs wherever they step by more than 1.
    """
    c = len(floors)
    corners = (floors[:, :, None] + _CELL_STEP).reshape(c, -1)
    lo = corners.min()
    span = corners.max() - lo + 2
    keys, at = np.unique((corners - lo + span * np.arange(c)[:, None]).ravel(),
                         return_inverse=True)
    row, offset = np.divmod(keys, span)
    first = np.searchsorted(row, np.arange(c))  # each row's first key
    breaks = np.flatnonzero(np.diff(keys) != 1) + 1
    starts, ends = np.concatenate(([0], breaks)), np.concatenate((breaks, [len(keys)]))
    runs = zip((starts - first[row[starts]]).tolist(), (offset[starts] + lo).tolist(),
               (ends - starts).tolist())
    return (at.reshape(c, -1) - first[:, None],
            [tuple(islice(runs, n)) for n in np.bincount(row[starts], minlength=c).tolist()])


class _Lowering:
    """A plan's taps as the table engine reads them.

    terms is, per channel, the whole sum of lattice taps factored
    (_terms): a tuple of (x_taps, y_taps) pairs, each a tuple of (offset,
    weight) pairs in offset order, whose outer products add up to the
    paper's 16-tap cost model (CornerSamplePlan.tap_weights), less the taps
    of exactly zero weight. y_taps holds, per channel, every term's y taps
    as (offset, term index, weight) in the (offset, term) order the passes
    add them. margins is (left, right, top, bottom), the lattice entries a
    table axis lacks before and after it for every channel's reads: output
    i reads entries floor + i and floor + 1 + i, so what lies past the last
    entry does not depend on the plane size. The cells read 2 nx lattice
    corners on the x axis and 2 ny on the y axis (floor, then floor + 1,
    site by site), zero taps too, of which each channel's distinct ones
    are numbered in order. x_runs and y_runs hold, per
    channel, the distinct corners as runs of consecutive offsets (first
    number, first offset, length), and corner_index (C, nx, 2, ny, 2) says
    where the product at corner (x0 + i, y0 + j) of channel c's cells ix
    and iy lies among the (C, 2 ny, 2 nx) products at distinct corners,
    flattened.
    """

    def __init__(self, plan, terms):
        self.terms = terms
        self.y_taps = [tuple(sorted((dy, t, wt) for t, (_, ys) in enumerate(channel)
                                    for dy, wt in ys)) for channel in terms]
        margins = []
        for floor in (plan.x_floor, plan.y_floor):  # a row's floors ascend
            margins += [max(0, -int(floor[:, 0].min())), max(0, int(floor[:, -1].max()))]
        self.margins = tuple(margins)
        (x_slot, self.x_runs), (y_slot, self.y_runs) = (_corner_runs(f)
                                                        for f in (plan.x_floor, plan.y_floor))
        (c, nx), ny = plan.x_floor.shape, plan.y_floor.shape[1]
        x_slot, y_slot = x_slot.reshape(c, nx, 2, 1, 1), y_slot.reshape(c, 1, 1, ny, 2)
        self.corner_index = ((np.arange(0, c * 2 * ny, 2 * ny).reshape(c, 1, 1, 1, 1) + y_slot)
                             * (2 * nx) + x_slot)


def lowering(plan) -> _Lowering:
    """plan's lowering, built on first use and kept in plan.cache."""
    low = plan.cache.get("table")
    if low is None:
        low = plan.cache["table"] = _Lowering(plan, _terms(plan))
    return low


def _edge_pad(padded, top, left, h, w):
    """Edge-replicate the (h+1, w+1) table at (top, left) of padded into its
    right and bottom margins. Replicated, its left and top margins would
    copy its zero column 0 and row 0, so they are left as they are: the
    caller allocates padded zeroed."""
    rows = slice(top, top + h + 1)
    # np.pad(mode="edge") makes the same array at several times the cost
    padded[rows, left + w + 1 :] = padded[rows, left + w : left + w + 1]
    padded[top + h + 1 :] = padded[top + h : top + h + 1]


def _site_terms(q, plan):
    """Site values and coordinate derivatives, blended from corner products.

    q is (n, C, nx, 2, ny, 2): q[..., c, ix, i, iy, j] is the product at the
    corner (x0 + i, y0 + j) of channel c's x cell ix and y cell iy, per
    sample. Returns the coefficient-weighted derivative sums per x site
    (n, C, nx) and per y site (n, C, ny), each summed in site order, and
    each sub-box weight's gradient (n, C, n_weights): the four-corner
    difference of the site values over the sub-box.
    """
    coeffs = plan.coeffs
    c, nx, ny = coeffs.shape
    a, b = plan.x_frac.reshape(c, nx, 1, 1, 1), plan.y_frac.reshape(c, 1, 1, ny, 1)
    wx, wy = np.concatenate((1 - a, a), axis=2), np.concatenate((1 - b, b), axis=4)
    p = wx * wy * q  # the products (1 - a) * (1 - b) * q00, a * (1 - b) * q10, ...
    values = p[..., 0, :, 0] + p[..., 1, :, 0] + p[..., 0, :, 1] + p[..., 1, :, 1]
    t = wy[:, :, 0] * (q[..., 1, :, :] - q[..., 0, :, :])  # (1 - b) * (q10 - q00), b * (q11 - q01)
    dx = coeffs * (t[..., 0] + t[..., 1])
    t = wx[..., 0] * (q[..., 1] - q[..., 0])  # (1 - a) * (q01 - q00), a * (q11 - q10)
    dy = coeffs * (t[..., 0, :] + t[..., 1, :])
    sw = np.stack([values[..., ixh, iyh] - values[..., ixl, iyh] - values[..., ixh, iyl]
                   + values[..., ixl, iyl] for ixl, ixh, iyl, iyh in plan.sub_boxes], axis=-1)
    return sum(dx[..., j] for j in range(ny)), sum(dy[..., i, :] for i in range(nx)), sw


def _x_taps(src, xs, left, w, out):
    """One term's x taps, (dx, weight) in order, of the rows src into out:
    the sum of weight times src's columns left + dx .. left + dx + W, each a
    (rows, W) slice of src's wider rows, summed in tap order."""
    (dx, wt), *rest = xs
    np.multiply(src[:, left + dx : left + dx + w], wt, out=out)
    for dx, wt in rest:
        out += wt * src[:, left + dx : left + dx + w]


def _y_pass(taps, src, dst, p0, m, h, last):
    """Add one channel's y taps of the table rows new in a strip into its output.

    The table has h + 1 rows, row 0 all zero; the strip's new rows are
    p0 + 1 .. p0 + m. src[t] holds term t's x-tapped table row p0 + j at its
    row j. In the last strip the final row is first repeated into the rows
    below it, as the table's edge-replicated bottom margin would be. Output
    row i is row i of dst and gets each tap (dy, t, weight) of table row
    i + dy once, from the strip that holds that row; rows above the table
    are zero and are skipped. The taps run in (offset, term) order in every
    strip, so each pixel gets the same sums in the same order at any strip
    height. src[t] and dst are W wide, so a tap is one contiguous run of
    rows. A box of no terms (all its sub-box weights zero) has no taps, and
    src no rows.
    """
    if last:
        src[:, m + 1 :] = src[:, m : m + 1]
    for dy, t, wt in taps:
        i0 = max(0, p0 + 1 - dy)
        i1 = h if last else min(h, p0 + m + 1 - dy)
        if i0 < i1:
            j = i0 + dy - p0
            dst[i0:i1] += wt * src[t, j : j + i1 - i0]


def _forward_plane(x, low, c, out, rows) -> bool:
    """Box-filter the (H, W) plane x of channel c into out, by strips of the
    given input rows, with the plan's lowering low.

    Each strip's prefix sums along x go into rsum, with a table row's zero
    left margin and edge-replicated right margin. Each term's x taps
    (_x_taps) read them into the term's cs rows, below its row 0, which
    carries the column sums of the table row above the strip. One scan down
    the rows, one add per row over every term's row at once, turns the rows
    into the column sums of the strip's table rows, and the y taps add them
    into out.

    Returns False, before any y tap reads them, as soon as a strip's row
    totals (its last prefix sums) or its last column sums are not finite. A
    running sum stays non-finite once it is, so those values are finite
    exactly when every prefix and column sum so far is.
    """
    h, w = x.shape
    left, right, _, bottom = low.margins
    terms = low.terms[c]
    cs = np.zeros((len(terms), 1 + rows + bottom, w))
    scan = list(cs.transpose(1, 0, 2))  # row j of every term: the column sums run down them
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
            _x_taps(r, xs, left, w, cs[t, 1 : m + 1])
        for j in range(m):
            np.add(scan[j + 1], scan[j], out=scan[j + 1])
        if not np.isfinite(cs[:, m]).all():
            return False
        _y_pass(low.y_taps[c], cs, out, p0, m, h, last)
    return True


def _table_plane(table, low, c, rows, out):
    """Channel c's terms on its table, into the (H, W) out.

    table is edge-replicated, entry (0, 0) at (top, left) of the lowering's
    margins, with every column the x taps read. A strip's x taps (_x_taps)
    read table rows p0 + 1 .. p0 + m, which already hold the column sums
    forward runs down its strips; each term's go into its xt rows below row
    0. xt and out are W wide, and the bottom margin's rows are the final
    row's, repeated by the y pass, so the margins cost the taps nothing.
    """
    left, _, top, bottom = low.margins
    h, w = out.shape
    xt = np.empty((len(low.terms[c]), 1 + rows + bottom, w))  # the y pass reads no row 0
    out[...] = 0.0
    for p0 in range(0, h, rows):
        m = min(rows, h - p0)
        last = p0 + m == h
        for t, (xs, _) in enumerate(low.terms[c]):
            _x_taps(table[top + 1 + p0 : top + 1 + p0 + m], xs, left, w, xt[t, 1 : 1 + m])
        _y_pass(low.y_taps[c], xt, out, p0, m, h, last)


def _corner_products(x, table, low, c, prods):
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
    left, _, top, _ = low.margins
    sr, sc = table.strides
    xf = np.empty((h, 1, w))  # the flipped input, one row per dot product
    xf[:, 0] = x[::-1, ::-1]
    # zero: a channel with fewer distinct corners leaves the rest unwritten
    dots = np.zeros(prods.shape + (h, 1, 1))
    for ky, y0, ly in low.y_runs[c]:
        for kx, x0, lx in low.x_runs[c]:
            corners = np.ndarray((ly, lx, h, w, 1), table.dtype, table,
                                 (top + y0) * sr + (left + x0) * sc, (sr, sc, sr, sc, sc))
            np.matmul(xf, corners, out=dots[ky : ky + ly, kx : kx + lx])
    np.sum(dots[..., 0, 0], axis=-1, out=prods)


def forward(xb, plan):
    """The (N, C, H, W) planes xb box-filtered by plan, plane by plane."""
    n, c, h, w = xb.shape
    out = np.empty(xb.shape)
    low, rows = lowering(plan), _strip_rows(h, w)
    for k in range(c):
        for i in range(n):
            if not _forward_plane(xb[i, k], low, k, out[i, k], rows):
                raise non_finite_channel(k)
    return out


def backward(xb, gb, plan, build_sat):
    """banded.backward's results, of the (N, C, H, W) input xb and the
    cotangent gb of its output, plane by plane. build_sat builds each
    plane's table of its flipped cotangent into a view of the padded buffer."""
    n, c, h, w = xb.shape
    # before the buffers below: allocated after them, it let the peak RSS
    # of boxconv_train_256 grow by 8 MB in 5 of 10 runs (heap layout)
    grad_input = np.empty(xb.shape)
    low, rows = lowering(plan), _strip_rows(h, w)
    left, right, top, bottom = low.margins
    # zeroed once: no plane writes its left and top margins (_edge_pad)
    padded = np.zeros((top + h + 1 + bottom, left + w + 1 + right))
    table = padded[top : top + h + 1, left : left + w + 1]
    taps = np.empty((h, w))
    prods = np.empty((n, c, 2 * plan.y_floor.shape[1], 2 * plan.x_floor.shape[1]))
    for k in range(c):
        for i in range(n):
            build_sat(gb[i, k, ::-1, ::-1], out=table)
            _edge_pad(padded, top, left, h, w)

            # parameter path: <flip(x), table read at (dx, dy)> per corner
            # of the channel's cells, summed over the rows
            _corner_products(xb[i, k], padded, low, k, prods[i, k])

            # input path: the channel's terms on its table, flipped back
            _table_plane(padded, low, k, rows, taps)
            grad_input[i, k, ::-1, ::-1] = taps

    # every cell corner's product, per sample, in _site_terms' order
    gx, gy, sw = _site_terms(prods.reshape(n, -1)[:, low.corner_index], plan)
    return grad_input, gx, gy, sw
