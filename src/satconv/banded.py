"""The box layer on small planes: banded matrix products.

A box is an integrated 1-D filter on each axis (Heckbert, "Filtering by
Repeated Integration", 1986), lowered here to matrix products as
Chellapilla, Puri and Simard lower convolution ("High Performance
Convolutional Neural Networks for Document Processing", 2006).

A sample site at coordinate v reads the prefix sums at v, interpolated: it
weighs the value e pixels past an output pixel by min(max(v - e, 0), 1),
and a read clamped to the plane's edge adds nothing. On an h x w plane that
is exactly a Toeplitz matrix, and zero padding comes out exactly. A
sub-box spans one interval between consecutive sites on each axis. Grouped
by their y interval g, the sub-boxes give out = sum_g Y_g X B_g^T, with
Y_g the (h, h) matrix of the interval and B_g the (w, w) matrix of their x
intervals, weighted: one term for single and split_v boxes, two for
split_h and split_4. The weights are the plan's factored form: B_g weighs
the x sites' profiles by plan.cx[:, :, g]. The input gradient is
sum_g Y_g^T G B_g. Per sample, K = G^T (Y_g X) holds in its diagonal at
offset e the cotangent's inner product with Y_g X shifted e columns, so
an x site's derivative is its plan.cx coefficients times the diagonal at
its floor, and a sub-box weight's gradient the diagonals' dot product
with its x interval's profile; G (X P_g^T)^T per x interval matrix P_g
gives the y sites' derivatives, weighted by plan.cy. A site off the plane
reads no diagonal and gets zero, as clamped coordinates do.

Every product is one batched np.matmul over all samples and channels, two
in forward and nine in backward; no table is built. The matrices are built
with array operations once per plan and plane size (bands), forward's on
the first forward, the rest on the first backward. They cost
O(h + w) multiply-adds per output pixel, flat in the window size but not
in the plane's, which is why only small planes come here (see
layer.BANDED_MAX_SIDE). Up to 128^2 the results do not depend on the BLAS
thread count.
"""

from __future__ import annotations

import numpy as np


def _toeplitz(profiles, n):
    """(C, T, n, n) matrices M[c, t, i, j] = P_ct(j - i), a view of the
    (C, T, 2n - 1) profiles P, which hold offsets -(n - 1) .. n - 1."""
    p = np.ascontiguousarray(profiles)
    s0, s1, s2 = p.strides
    return np.ndarray(p.shape[:2] + (n, n), p.dtype, p, (n - 1) * s2, (s0, s1, -s2, s2))


def _site_profiles(floor, frac, n):
    """(C, S, 2n - 1): each site's interpolated prefix read, as a profile of
    offsets e = -(n - 1) .. n - 1: 1 before floor, frac at floor, then 0,
    that is min(max(floor + frac - e, 0), 1)."""
    return np.minimum(np.maximum((floor + frac)[..., None] - np.arange(1 - n, n), 0.0), 1.0)


def _site_weights(coeffs, floor, band):
    """(C, G, hi - lo + 1, S) for band (lo, hi): coeffs[c, s, g] at row
    floor[c, s] - lo of column s, where the band holds it."""
    at = np.arange(band[0], band[1] + 1)[:, None] == floor[:, None]  # (C, band, S)
    return at[:, None] * coeffs.transpose(0, 2, 1)[:, :, None]


class _Bands:
    """A plan's matrices on (h, w) planes, and what backward reads with them.

    They lie as the products read them: y (c, G, h, h) [g, j, i] =
    Y_g[j, i] and bt (c, G w, w) [(g, i), j] = B_g[j, i], built at once;
    the rest on backward's first call (backward_parts): bg (c, G w, w)
    [(g, j), i] = B_g[j, i], side by side, and xg (c, w, G_x w)
    [i, (g, j)] = P_g[j, i]. Sites lie within the window, so backward needs
    only the diagonal sums at offsets x_band = (lo, hi), -r .. r + 1 for a
    window half-width r, as far as the plane reaches. wx (c, G (hi - lo +
    1), n_x + S) turns the y intervals' sums into the x sites' derivatives,
    each the sum at the offset of its floor weighted by its coefficients
    summed over the sub-boxes of the interval, and into the sub-box
    weights' gradients, through their x intervals' profiles. y_band and wy
    (c, G_x (.), n_y) do the same for the y sites.
    """

    def __init__(self, plan, h, w):
        self.h, self.w = h, w
        nx, n = plan.x_floor.shape[1], max(h, w)
        sites = _site_profiles(np.concatenate((plan.x_floor, plan.y_floor), axis=1),
                               np.concatenate((plan.x_frac, plan.y_frac), axis=1), n)
        # offsets -(w - 1) .. w - 1 and -(h - 1) .. h - 1 of the profiles
        self.sx, sy = sites[:, :nx, n - w : n + w - 1], sites[:, nx:, n - h : n + h - 1]
        self.py = sy[:, 1:] - sy[:, :-1]
        self.b = _toeplitz(np.matmul(plan.cx.transpose(0, 2, 1), self.sx), w)
        self.y = _toeplitz(self.py, h).copy()
        self.bt = self.b.transpose(0, 1, 3, 2).reshape(len(self.b), -1, w)

    def backward_parts(self, plan):
        """Build bg, xg, the bands, wx and wy of plan, the plan these
        matrices are of, once; returns self."""
        if hasattr(self, "wx"):
            return self
        h, w, (c, nx), ny = self.h, self.w, plan.x_floor.shape, plan.y_floor.shape[1]
        px = self.sx[:, 1:] - self.sx[:, :-1]
        self.bg = self.b.reshape(c, -1, w)
        self.xg = _toeplitz(px, w).transpose(0, 3, 1, 2).reshape(c, w, -1)
        r = (plan.max_kernel - 1) // 2
        self.x_band, self.y_band = ((max(-r, 1 - m), min(r + 1, m - 1)) for m in (w, h))
        ixl, _, iyl, _ = np.array(plan.sub_boxes).T
        lo, hi = self.x_band
        sub = (px[:, ixl, lo + w - 1 : hi + w].transpose(0, 2, 1)[:, None]
               * (np.arange(self.py.shape[1])[:, None] == iyl)[:, None])
        self.wx = np.concatenate((_site_weights(plan.cx, plan.x_floor, self.x_band), sub),
                                 axis=-1).reshape(c, -1, nx + len(ixl))
        self.wy = _site_weights(plan.cy, plan.y_floor, self.y_band).reshape(c, -1, ny)
        return self


def bands(plan, h, w) -> _Bands:
    """plan's matrices on (h, w) planes, built on first use and kept in
    plan.cache."""
    b = plan.cache.get((h, w))
    if b is None:
        b = plan.cache[h, w] = _Bands(plan, h, w)
    return b


def _side_by_side(u, g):
    """(..., g h, w) [(k, i), j] as (..., h, g w) [i, (k, j)]."""
    *lead, gh, w = u.shape
    if g > 1:
        u = np.swapaxes(u.reshape(*lead, g, gh // g, w), -2, -3)
    return u.reshape(*lead, gh // g, g * w)


def _diagonal_sums(a, b, band):
    """(..., hi - lo + 1): the sums of the diagonals of the (m, m) products
    a @ b at offsets (column minus row) lo .. hi, band = (lo, hi) with
    -m < lo <= 0 <= hi < m."""
    (lo, hi), m = band, a.shape[-2]
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    # each product after p zeros and with p zeros after each row: the entries
    # of a diagonal lie m + p + 1 apart, and its reads past the product are zero
    p = max(-lo, hi)
    buffer = np.zeros(lead + (p + m * (m + p),))
    s = buffer.strides[:-1] + (8 * (m + p), 8)
    np.matmul(a, b, out=np.ndarray(lead + (m, m), buffer.dtype, buffer, 8 * p, s))
    diagonals = np.ndarray(lead + (m, hi - lo + 1), buffer.dtype, buffer, 8 * (p + lo),
                           s[:-2] + (8 * (m + p + 1), 8))
    return np.matmul(np.ones(m), diagonals)


def forward(x, plan):
    """The (n, c, h, w) planes x box-filtered, sum_g Y_g X B_g^T. Sums that
    overflow float64 come out as inf or NaN, without a warning."""
    c, h = x.shape[1:3]
    b = bands(plan, h, x.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        return np.matmul(_side_by_side(np.matmul(b.y.reshape(c, -1, h), x), b.y.shape[1]), b.bt)


def backward(x, gs, plan):
    """The input gradient (n, c, h, w), the coefficient-weighted derivatives
    of every x and y site (n, c, n_x) and (n, c, n_y), and each sub-box
    weight's gradient (n, c, S), of the (n, c, h, w) input x given the
    cotangent gs on its grid.

    V_g = Y_g^T G serves both the input gradient, sum_g V_g B_g, and the x
    sites' diagonals, K = V_g^T X = G^T (Y_g X) per sample.
    """
    n, c, h, w = x.shape
    b = bands(plan, h, w).backward_parts(plan)
    dx = _diagonal_sums(gs[:, :, None], np.matmul(x, b.xg).reshape(n, c, h, -1, w)
                        .transpose(0, 1, 3, 4, 2), b.y_band)
    v = np.matmul(np.swapaxes(b.y, -1, -2), gs[:, :, None])  # (n, c, G, h, w)
    dy = _diagonal_sums(np.swapaxes(v, -1, -2), x[:, :, None], b.x_band)
    gx = np.matmul(dy.reshape(n, c, 1, -1), b.wx)[:, :, 0]
    gy = np.matmul(dx.reshape(n, c, 1, -1), b.wy)[:, :, 0]
    nx = plan.x_floor.shape[1]
    gi = np.matmul(_side_by_side(v.reshape(n, c, -1, w), v.shape[2]), b.bg)
    return gi, gx[..., :nx], gy, gx[..., nx:]
