"""Learnable box kernels: normalized coordinates, projection, sample plans.

A box lives inside a centered window of odd size k. Its four edges are
normalized coordinates in [-1, 1] that map linearly to pixel offsets in
[-(k-1)/2, +(k-1)/2]. A box with edges (xl, xh) on one axis covers the
continuous interval [xl, xh + 1) of pixel coverage, so its table sample
coordinates are xl and xh + 1; the area of the box is (xh - xl + 1) times
the same expression in y.

Split variants divide the coverage rectangle with one or two interior
lines, each sub-rectangle carrying its own scalar weight. Sub-rectangles
share table samples along the dividing line, which is why a 2-way split
needs 6 distinct sample sites and a 4-way split needs 9 (versus 4 for a
single box).

A layer's boxes are three arrays with one row per channel: theta (C, 4)
holds the edges (xl, xh, yl, yh), split (C, s) the split lines and
weight (C, w) the sub-box weights; TRAINED names those that train.
project_params moves them back into their feasible set in place, and
compile_plan folds them, for all channels at once, into each channel's
lattice cells and folded site coefficients.
For the layer's table engine, the plan derives on first use the same taps
factored per channel: every sub-box is an x difference times a y
difference, so the taps split exactly into a few terms of x taps times y
taps, which the engine applies one axis at a time. BoxParams is the record of one box, for box files, pictures
and the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from enum import Enum
from itertools import islice

import numpy as np


class FeasibilityError(ValueError):
    """Box parameters violate their ordering or range constraints."""


class BoxVariant(str, Enum):
    SINGLE = "single"
    SPLIT_H = "split_h"  # one horizontal dividing line: top / bottom sub-boxes
    SPLIT_V = "split_v"  # one vertical dividing line: left / right sub-boxes
    SPLIT_4 = "split_4"  # both lines: four quadrant sub-boxes


# Per split line, the column of theta holding the low edge it lies between:
# 0 for an x line (between xl and xh), 2 for a y line (between yl and yh).
SPLIT_EDGES = {
    BoxVariant.SINGLE: (),
    BoxVariant.SPLIT_H: (2,),
    BoxVariant.SPLIT_V: (0,),
    BoxVariant.SPLIT_4: (0, 2),
}
# Per sub-box, in weight order, its (ix_lo, ix_hi, iy_lo, iy_hi) indices into
# the sample coordinates box_geometry returns.
SUB_BOXES = {
    BoxVariant.SINGLE: ((0, 1, 0, 1),),
    BoxVariant.SPLIT_H: ((0, 1, 0, 1), (0, 1, 1, 2)),
    BoxVariant.SPLIT_V: ((0, 1, 0, 1), (1, 2, 0, 1)),
    BoxVariant.SPLIT_4: ((0, 1, 0, 1), (1, 2, 0, 1), (0, 1, 1, 2), (1, 2, 1, 2)),
}
N_SPLITS = {v: len(edges) for v, edges in SPLIT_EDGES.items()}
N_WEIGHTS = {v: len(subs) for v, subs in SUB_BOXES.items()}
# Per variant, the layer arrays that train, in params() order: theta always,
# split if the variant has split lines, weight unless it has one sub-box,
# whose weight is fixed at 1.
TRAINED = {v: ("theta",) + ("split",) * (N_SPLITS[v] > 0) + ("weight",) * (N_WEIGHTS[v] > 1)
           for v in BoxVariant}
# Per variant, the columns of [theta | split] that give its sample sites:
# x sites (low edge, optional split line, high edge), then y sites.
SITE_EDGES = {v: tuple(np.array([lo, *(4 + j for j, e in enumerate(edges) if e == lo), lo + 1])
                       for lo in (0, 2))
              for v, edges in SPLIT_EDGES.items()}
# Per variant, the x factors and then the y factors its terms are built from
# (see _factor): each factor's weights on the intervals between consecutive
# sample sites, as columns of [0, 1, w_0, w_1, ...] (column 2 + i reads
# sub-box weight i). A site's coefficient is the weight of the interval
# before it minus that of the interval after it, with weight 0 outside the box.
FACTORS = {
    BoxVariant.SINGLE: (((2,),), ((1,),)),
    BoxVariant.SPLIT_V: (((2, 3),), ((1,),)),
    BoxVariant.SPLIT_H: (((1,),), ((2, 3),)),
    BoxVariant.SPLIT_4: (((2, 3), (4, 5)), ((1, 1), (1, 0), (0, 1))),
}


def _site_columns(x_factors, y_factors):
    """(2, F, nx + ny): the columns of the intervals before, and after, each
    x site, then each y site, per factor; a factor reads column 0 on the
    other axis."""
    nx, ny = len(x_factors[0]) + 1, len(y_factors[0]) + 1
    before, after = [], []
    for f in x_factors:
        before.append((0, *f) + (0,) * ny)
        after.append((*f, 0) + (0,) * ny)
    for f in y_factors:
        before.append((0,) * nx + (0, *f))
        after.append((0,) * nx + (*f, 0))
    return np.array([before, after])


SITE_COLUMNS = {v: _site_columns(*factors) for v, factors in FACTORS.items()}
FEASIBLE = "finite values, -1 <= lo <= hi <= 1 on each axis, each split line between its edges"


@dataclass(frozen=True)
class BoxParams:
    """Normalized box coordinates plus optional split lines and weights.

    split_theta holds the interior line positions: (x,) for SPLIT_V, (y,) for
    SPLIT_H, (x, y) for SPLIT_4. split_weights holds one scalar per sub-box
    in reading order (left before right, top before bottom); for SINGLE it is
    the fixed (1.0,).
    """

    theta_xl: float
    theta_xh: float
    theta_yl: float
    theta_yh: float
    max_kernel: int
    variant: BoxVariant = BoxVariant.SINGLE
    split_theta: tuple = ()
    split_weights: tuple = (1.0,)

    def __post_init__(self):
        k = self.max_kernel
        if k < 3 or k % 2 == 0:
            raise ValueError(f"max_kernel must be odd and >= 3, got {k}")
        v = BoxVariant(self.variant)
        object.__setattr__(self, "variant", v)
        object.__setattr__(self, "split_theta", tuple(float(s) for s in self.split_theta))
        object.__setattr__(self, "split_weights", tuple(float(w) for w in self.split_weights))
        if len(self.split_theta) != N_SPLITS[v]:
            raise ValueError(
                f"{v.value} needs {N_SPLITS[v]} split positions, got {len(self.split_theta)}"
            )
        if len(self.split_weights) != N_WEIGHTS[v]:
            raise ValueError(
                f"{v.value} needs {N_WEIGHTS[v]} sub-box weights, got {len(self.split_weights)}"
            )

    @property
    def thetas(self):
        return (self.theta_xl, self.theta_xh, self.theta_yl, self.theta_yh)


def box_arrays(boxes, variant):
    """The (C, 4) theta, (C, s) split and (C, w) weight arrays of C boxes of one variant."""
    c = len(boxes)
    return (np.array([p.thetas for p in boxes], dtype=np.float64).reshape(c, 4),
            np.array([p.split_theta for p in boxes], dtype=np.float64).reshape(c, N_SPLITS[variant]),
            np.array([p.split_weights for p in boxes], dtype=np.float64).reshape(c, N_WEIGHTS[variant]))


def feasible(theta, split, weight, variant) -> np.ndarray:
    """Per box (row), whether it satisfies FEASIBLE: the contract compile_plan
    and the layer forward assume. NaN fails every comparison, so it is never
    feasible."""
    ok = ((-1.0 <= theta) & (theta <= 1.0)).all(axis=-1)
    ok &= (theta[:, 0] <= theta[:, 1]) & (theta[:, 2] <= theta[:, 3])
    for j, lo in enumerate(SPLIT_EDGES[BoxVariant(variant)]):
        ok &= (theta[:, lo] <= split[:, j]) & (split[:, j] <= theta[:, lo + 1])
    return ok & np.isfinite(weight).all(axis=-1)


def _interior(s, lo, hi):
    """Split lines s strictly inside (lo, hi), a relative 1e-9 from either
    edge, or at the midpoint where the interval is too narrow; NaN stays NaN."""
    mid = 0.5 * (lo + hi)
    margin = (hi - lo) * 1e-9
    inside = np.minimum(np.maximum(s, lo + margin), hi - margin)
    ok = (lo < mid) & (mid < hi) & (lo < inside) & (inside < hi)
    return np.where(ok | np.isnan(s), inside, mid)


def project_params(theta, split, variant) -> None:
    """Clip edges to [-1, 1], restore lo <= hi by swapping, re-center splits.

    Works in place on a layer's (C, 4) theta and (C, s) split arrays; the
    weights are free. Idempotent; the result satisfies FEASIBLE unless a
    value is NaN, which stays NaN for compile_plan to reject, or a weight
    is not finite.
    """
    np.clip(theta, -1.0, 1.0, out=theta)
    for lo in (0, 2):
        # swap rather than snap: keeps the step's gradient information and is idempotent
        pair = theta[:, lo : lo + 2]
        pair[...] = np.where(pair[:, :1] > pair[:, 1:], pair[:, ::-1], pair)
    for j, lo in enumerate(SPLIT_EDGES[BoxVariant(variant)]):
        split[:, j] = _interior(split[:, j], theta[:, lo], theta[:, lo + 1])


def sample_init_thetas(rng) -> tuple:
    """Raw pre-projection edge draws: i.i.d. uniform on [-0.5, 0.5].

    The narrow range keeps freshly initialized boxes away from the clipping
    boundary. Draw order is fixed (xl, xh, yl, yh) for reproducibility.
    """
    return tuple(float(v) for v in rng.uniform(-0.5, 0.5, size=4))


def init_params(k: int, variant=BoxVariant.SINGLE, rng=None) -> BoxParams:
    """Random feasible box: uniform edges, splits uniform inside, weights 1."""
    if rng is None:
        rng = np.random.default_rng()
    variant = BoxVariant(variant)
    xl, xh, yl, yh = sample_init_thetas(rng)
    if xl > xh:
        xl, xh = xh, xl
    if yl > yh:
        yl, yh = yh, yl
    t = (xl, xh, yl, yh)
    splits = [t[lo] + float(rng.uniform()) * (t[lo + 1] - t[lo]) for lo in SPLIT_EDGES[variant]]
    theta, split = np.array([t]), np.array([splits])
    project_params(theta, split, variant)
    return BoxParams(*theta[0].tolist(), k, variant, split[0].tolist(), (1.0,) * N_WEIGHTS[variant])


def box_geometry(theta, split, weight, k: int, variant):
    """Resolve feasible boxes into table-space sample coordinates.

    Returns (xs, ys, subs): xs (C, nx) and ys (C, ny) are each box's distinct
    sample coordinates per axis as centered pixel offsets (low edge,
    optional split line, high edge plus one), and subs is the variant's
    SUB_BOXES. Raises FeasibilityError naming the first infeasible box.
    """
    variant = BoxVariant(variant)
    bad = np.flatnonzero(~feasible(theta, split, weight, variant))
    if bad.size:
        c = int(bad[0])
        raise FeasibilityError(
            f"channel {c}: box edges {theta[c].tolist()}, splits {split[c].tolist()}, "
            f"weights {weight[c].tolist()} break the feasible set ({FEASIBLE})")
    edges = np.concatenate((theta, split), axis=1) * ((k - 1) / 2)
    xs, ys = (edges[:, columns] for columns in SITE_EDGES[variant])
    xs[:, -1] += 1.0
    ys[:, -1] += 1.0
    return xs, ys, SUB_BOXES[variant]


def _corner_runs(floors):
    """Each row's lattice corners on one axis, floor and floor + 1 per site.

    floors is a list of rows of site floors, in site order, which is
    ascending. Returns the numbers of each row's corners among its distinct
    ones in order, as a (C, 2 S) array, and per row the distinct corners as
    runs of consecutive offsets, each a (first number, first offset,
    length) tuple. A site adds as many new corners as its floor lies above
    the one before, at most 2, and its two corners are then the last two
    distinct ones; it starts a run when its floor lies more than 2 above.
    """
    slots, runs = [], []
    for row in floors:
        slot, starts, d = [0, 1], [(0, row[0])], 2
        for before, v in zip(row, row[1:]):
            if v - before > 2:
                starts.append((d, v))
            d += min(2, v - before)
            slot += [d - 2, d - 1]
        slots.append(slot)
        ends = [k for k, _ in starts[1:]] + [d]
        runs.append(tuple((k, v, end - k) for (k, v), end in zip(starts, ends)))
    return np.array(slots, dtype=np.intp), runs


@dataclass(frozen=True)
class CornerSamplePlan:
    """Compiled lattice taps for a layer's C boxes.

    A sample site at coordinate v reads the lattice cell (floor, floor + 1)
    with interpolation fraction v - floor. x_floor and x_frac are (C, nx),
    y_floor and y_frac (C, ny); coeffs (C, nx, ny) holds each site's folded
    signed weight (corner sign pattern times sub-box weights), and weight
    (C, w) the sub-box weights it was folded from. bands holds the banded
    route's matrices of this plan, per plane size, built on first use.

    The table engine's fields are derived from those on first read, so a
    plan that only ever runs on the banded route never builds them. terms
    is, per channel, the whole sum of lattice taps factored: a tuple of
    (x_taps, y_taps) pairs, each a tuple of (offset, weight) pairs in
    offset order, whose outer products add up to the paper's 16-tap cost
    model (tap_weights). Taps whose folded weight is exactly zero are left
    out of the terms and of the tap count; the cells still name every
    lattice corner the sites read. y_taps holds, per channel, every term's
    y taps as (offset, term index, weight) in (offset, term) order, the
    order in which the layer adds them; margins is (left, right, top,
    bottom), the lattice entries a table axis lacks before and after it for
    every channel's reads: output i reads entries floor + i and
    floor + 1 + i, so what lies past the last entry does not depend on the
    plane size. The cells read 2 nx lattice corners on the x axis and 2 ny
    on the y axis (floor, then floor + 1, site by site), of which each
    channel's distinct ones are numbered in order: x_runs and y_runs hold,
    per channel, the distinct corners as runs of consecutive offsets
    (first number, first offset, length), and corner_index (C, nx, 2, ny, 2)
    says where the product at corner (x0 + i, y0 + j) of channel c's cells
    ix and iy lies among the (C, 2 ny, 2 nx) products at distinct corners,
    flattened.
    """

    x_floor: np.ndarray
    x_frac: np.ndarray
    y_floor: np.ndarray
    y_frac: np.ndarray
    coeffs: np.ndarray
    sub_boxes: tuple
    weight: np.ndarray
    variant: BoxVariant
    max_kernel: int
    bands: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    @cached_property
    def terms(self) -> list:
        return _factor(np.concatenate((self.x_floor, self.y_floor), axis=1),
                       np.concatenate((self.x_frac, self.y_frac), axis=1),
                       self.weight, self.max_kernel, self.variant)

    @cached_property
    def y_taps(self) -> list:
        return [tuple(sorted((dy, t, wt) for t, (_, ys) in enumerate(channel) for dy, wt in ys))
                for channel in self.terms]

    @cached_property
    def margins(self) -> tuple:
        margins = []
        for floor in (self.x_floor, self.y_floor):  # a row's floors ascend
            margins += [max(0, -int(floor[:, 0].min())), max(0, int(floor[:, -1].max()))]
        return tuple(margins)

    @cached_property
    def _corners(self) -> tuple:
        """x_runs, y_runs and corner_index."""
        (x_slot, x_runs), (y_slot, y_runs) = (_corner_runs(f.tolist())
                                              for f in (self.x_floor, self.y_floor))
        (c, nx), ny = self.x_floor.shape, self.y_floor.shape[1]
        x_slot, y_slot = x_slot.reshape(c, nx, 2, 1, 1), y_slot.reshape(c, 1, 1, ny, 2)
        index = (np.arange(0, c * 2 * ny, 2 * ny).reshape(c, 1, 1, 1, 1) + y_slot) * (2 * nx) + x_slot
        return x_runs, y_runs, index

    @property
    def x_runs(self) -> list:
        return self._corners[0]

    @property
    def y_runs(self) -> list:
        return self._corners[1]

    @property
    def corner_index(self) -> np.ndarray:
        return self._corners[2]

    def tap_weights(self) -> np.ndarray:
        """(C, nx, ny, 2, 2): site (ix, iy)'s weight on lattice corner
        (x_floor + i, y_floor + j) at [..., ix, iy, j, i]."""
        a, b = self.x_frac, self.y_frac
        wx = np.stack([1 - a, a], axis=-1)[:, :, None, None, :]
        wy = np.stack([1 - b, b], axis=-1)[:, None, :, :, None]
        return self.coeffs[..., None, None] * (wx * wy)

    @property
    def n_taps(self) -> np.ndarray:
        """Per channel, the lattice taps of non-zero folded weight."""
        return np.count_nonzero(self.tap_weights(), axis=(1, 2, 3, 4))


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


def _factor(floor, frac, weight, k, variant):
    """Every box's taps as a sum of (x taps) x (y taps) terms.

    floor and frac hold each box's x sites, then its y sites. Each sub-box
    contributes weight * (x difference) x (y difference), so sub-boxes that
    share an interval on one axis share one term, whose other factor folds
    their weights per site (FACTORS), and equal weights on both sides of a
    split line cancel exactly, as in the folded taps: 1 term for single,
    split_h and split_v boxes, 2 for split_4 (1 when its top and bottom rows
    fold to the same x factor, as with four equal weights). A term that
    folds to no taps is left out. A factor's coefficients on the other
    axis's sites are 0.0, whose shares leave every sum as it is.
    """
    c = len(weight)
    columns = np.empty((c, 2 + weight.shape[1]))
    columns[:, 0], columns[:, 1], columns[:, 2:] = 0.0, 1.0, weight
    before_after = columns[:, SITE_COLUMNS[variant]]
    coefs = (before_after[:, 0] - before_after[:, 1]).transpose(1, 0, 2)
    taps = _lattice_taps(floor, frac, coefs, k)
    n_x = len(FACTORS[variant][0]) * c
    xt, yt = taps[:n_x], taps[n_x:]
    if variant == BoxVariant.SPLIT_4:
        same = (coefs[0] == coefs[1]).all(axis=1).tolist()
        pairs = [((xt[i], yt[i]),) if s else ((xt[i], yt[c + i]), (xt[c + i], yt[2 * c + i]))
                 for i, s in enumerate(same)]
    else:
        pairs = [((xs, ys),) for xs, ys in zip(xt, yt)]
    return [tuple((xs, ys) for xs, ys in p if xs and ys) for p in pairs]


def compile_plan(theta, split, weight, k: int, variant) -> CornerSamplePlan:
    """Fold a layer's feasible boxes into their corner-sample plan.

    A tap whose folded weight is exactly zero is dropped: a site on the
    lattice (a zero interpolation fraction, as at a window edge of +-1) and
    a site whose sub-box weights cancel (the split lines of an equal-weight
    split box) add nothing to any output.
    """
    xs, ys, subs = box_geometry(theta, split, weight, k, variant)
    coeffs = np.zeros(xs.shape + ys.shape[-1:])
    for i, (ixl, ixh, iyl, iyh) in enumerate(subs):
        w = weight[:, i]
        coeffs[:, ixh, iyh] += w
        coeffs[:, ixl, iyl] += w
        coeffs[:, ixl, iyh] -= w
        coeffs[:, ixh, iyl] -= w
    sites = np.concatenate((xs, ys), axis=1)
    floor = np.floor(sites)
    frac = sites - floor
    floor = floor.astype(np.int64)
    nx = xs.shape[1]
    return CornerSamplePlan(floor[:, :nx], frac[:, :nx], floor[:, nx:], frac[:, nx:], coeffs, subs,
                            np.array(weight, dtype=np.float64), BoxVariant(variant), k)


def save_boxes(path, boxes) -> None:
    """One box per line: variant k xl xh yl yh [splits...] [weights...]."""
    lines = []
    for p in boxes:
        fields = [p.variant.value, str(p.max_kernel)]
        fields += [f"{t:.17g}" for t in p.thetas]
        fields += [f"{s:.17g}" for s in p.split_theta]
        if "weight" in TRAINED[p.variant]:
            fields += [f"{w:.17g}" for w in p.split_weights]
        lines.append(" ".join(fields))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_boxes(path):
    boxes = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                variant = BoxVariant(parts[0])
                k = int(parts[1])
                vals = [float(v) for v in parts[2:]]
                ns, weighted = N_SPLITS[variant], "weight" in TRAINED[variant]
                want = 4 + ns + N_WEIGHTS[variant] * weighted
                if len(vals) != want:
                    raise ValueError(f"expected {want + 2} fields, got {len(parts)}")
                weights = tuple(vals[4 + ns :]) if weighted else (1.0,)
                box = BoxParams(*vals[:4], k, variant, vals[4 : 4 + ns], weights)
                if not feasible(*box_arrays([box], variant), variant)[0]:
                    raise FeasibilityError(f"infeasible box, need {FEASIBLE}")
                boxes.append(box)
            except (ValueError, KeyError, IndexError) as e:
                raise ValueError(f"{path}:{lineno}: bad box line: {e}") from e
    if not boxes:
        raise ValueError(f"{path}: no boxes found")
    return boxes
