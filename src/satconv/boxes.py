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
single box). Compiling a plan folds the per-site bilinear interpolation
weights, corner signs, and sub-box weights into flat lattice taps, so the
forward pass is a fixed list of multiply-adds per output pixel regardless
of k. The same taps also come factored: every sub-box is an x difference
times a y difference, so the taps split exactly into a few terms of x taps
times y taps, which the layer's forward applies one axis at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class FeasibilityError(ValueError):
    """Box parameters violate their ordering or range constraints."""


class BoxVariant(str, Enum):
    SINGLE = "single"
    SPLIT_H = "split_h"  # one horizontal dividing line: top / bottom sub-boxes
    SPLIT_V = "split_v"  # one vertical dividing line: left / right sub-boxes
    SPLIT_4 = "split_4"  # both lines: four quadrant sub-boxes


N_SPLITS = {
    BoxVariant.SINGLE: 0,
    BoxVariant.SPLIT_H: 1,
    BoxVariant.SPLIT_V: 1,
    BoxVariant.SPLIT_4: 2,
}
N_WEIGHTS = {
    BoxVariant.SINGLE: 1,
    BoxVariant.SPLIT_H: 2,
    BoxVariant.SPLIT_V: 2,
    BoxVariant.SPLIT_4: 4,
}


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


def theta_to_pixel(theta: float, k: int) -> float:
    """Map a normalized coordinate to a centered pixel offset: theta * (k-1)/2."""
    if k < 3 or k % 2 == 0:
        raise ValueError(f"kernel size must be odd and >= 3, got {k}")
    if not -1.0 <= theta <= 1.0:
        raise FeasibilityError(f"theta {theta} outside [-1, 1]; project first")
    return theta * (k - 1) / 2


def _clip(t: float) -> float:
    return min(max(float(t), -1.0), 1.0)


def _order(lo: float, hi: float):
    lo, hi = _clip(lo), _clip(hi)
    # Swap rather than snap: keeps the step's gradient information and is idempotent.
    return (hi, lo) if lo > hi else (lo, hi)


def _interior(s: float, lo: float, hi: float) -> float:
    mid = 0.5 * (lo + hi)
    if not lo < mid < hi:
        return mid  # degenerate interval: snap to midpoint
    margin = (hi - lo) * 1e-9
    s = min(max(float(s), lo + margin), hi - margin)
    if not lo < s < hi:
        s = mid
    return s


def project_params(p: BoxParams) -> BoxParams:
    """Clip thetas to [-1, 1], restore lo <= hi by swapping, re-center splits.

    Idempotent; the result always satisfies the feasibility contract that
    compile_plan and the layer forward assume.
    """
    xl, xh = _order(p.theta_xl, p.theta_xh)
    yl, yh = _order(p.theta_yl, p.theta_yh)
    splits = p.split_theta
    if p.variant == BoxVariant.SPLIT_V:
        splits = (_interior(splits[0], xl, xh),)
    elif p.variant == BoxVariant.SPLIT_H:
        splits = (_interior(splits[0], yl, yh),)
    elif p.variant == BoxVariant.SPLIT_4:
        splits = (_interior(splits[0], xl, xh), _interior(splits[1], yl, yh))
    return BoxParams(xl, xh, yl, yh, p.max_kernel, p.variant, splits, p.split_weights)


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
    splits = []
    if variant in (BoxVariant.SPLIT_V, BoxVariant.SPLIT_4):
        splits.append(xl + float(rng.uniform()) * (xh - xl))
    if variant in (BoxVariant.SPLIT_H, BoxVariant.SPLIT_4):
        splits.append(yl + float(rng.uniform()) * (yh - yl))
    if variant == BoxVariant.SPLIT_4:
        splits = [splits[0], splits[1]]
    weights = (1.0,) * N_WEIGHTS[variant]
    return project_params(
        BoxParams(xl, xh, yl, yh, k, variant, tuple(splits), weights)
    )


def box_geometry(p: BoxParams):
    """Resolve a feasible box into table-space coordinates and sub-boxes.

    Returns (xs, ys, subs): xs and ys are the distinct sample coordinates per
    axis as centered pixel offsets (low edge, optional split line, high edge
    plus one), and subs is a tuple of (ix_lo, ix_hi, iy_lo, iy_hi, weight)
    index 4-tuples into xs/ys, one per sub-box.
    """
    k = p.max_kernel
    r = (k - 1) / 2
    for name, t in zip(("theta_xl", "theta_xh", "theta_yl", "theta_yh"), p.thetas):
        if not -1.0 <= t <= 1.0:
            raise FeasibilityError(f"{name}={t} outside [-1, 1]; project first")
    if p.theta_xl > p.theta_xh or p.theta_yl > p.theta_yh:
        raise FeasibilityError("box edges out of order; project first")
    xl, xh = p.theta_xl * r, p.theta_xh * r
    yl, yh = p.theta_yl * r, p.theta_yh * r
    w = p.split_weights
    if p.variant == BoxVariant.SINGLE:
        return (xl, xh + 1.0), (yl, yh + 1.0), ((0, 1, 0, 1, w[0]),)
    if p.variant == BoxVariant.SPLIT_V:
        sx = p.split_theta[0]
        if not p.theta_xl <= sx <= p.theta_xh:
            raise FeasibilityError(f"x split {sx} outside box; project first")
        return (
            (xl, sx * r, xh + 1.0),
            (yl, yh + 1.0),
            ((0, 1, 0, 1, w[0]), (1, 2, 0, 1, w[1])),
        )
    if p.variant == BoxVariant.SPLIT_H:
        sy = p.split_theta[0]
        if not p.theta_yl <= sy <= p.theta_yh:
            raise FeasibilityError(f"y split {sy} outside box; project first")
        return (
            (xl, xh + 1.0),
            (yl, sy * r, yh + 1.0),
            ((0, 1, 0, 1, w[0]), (0, 1, 1, 2, w[1])),
        )
    sx, sy = p.split_theta
    if not (p.theta_xl <= sx <= p.theta_xh and p.theta_yl <= sy <= p.theta_yh):
        raise FeasibilityError("split line outside box; project first")
    return (
        (xl, sx * r, xh + 1.0),
        (yl, sy * r, yh + 1.0),
        (
            (0, 1, 0, 1, w[0]),
            (1, 2, 0, 1, w[1]),
            (0, 1, 1, 2, w[2]),
            (1, 2, 1, 2, w[3]),
        ),
    )


@dataclass(frozen=True)
class CornerSamplePlan:
    """Compiled lattice taps for one box.

    x_sites/y_sites are the continuous sample coordinates (centered offsets);
    x_cells/y_cells hold their resolved (floor, frac) pairs; coeffs[ix][iy] is
    the folded signed weight of each sample site (corner sign pattern times
    sub-box weights); taps is the flat (dx, dy, weight) list of the paper's
    16-tap cost model, dx/dy being integer lattice offsets. terms is the
    same sum factored: a tuple of (x_taps, y_taps) pairs, each a tuple of
    (offset, weight) pairs in offset order, whose outer products add up to
    taps. Taps whose folded weight is exactly zero are left out of both;
    the cells still name every lattice corner the sites read.
    """

    x_sites: tuple
    y_sites: tuple
    x_cells: tuple
    y_cells: tuple
    coeffs: tuple
    sub_boxes: tuple
    taps: tuple
    terms: tuple
    max_kernel: int

    @property
    def n_samples(self) -> int:
        return len(self.taps)


def _axis_taps(cells, coefs):
    """One axis's lattice taps of sum_i coefs[i] * (site i's interpolated
    value), summed by offset, in offset order, exact zeros dropped."""
    merged = {}
    for (c0, f), c in zip(cells, coefs):
        for off, wt in ((c0, c * (1 - f)), (c0 + 1, c * f)):
            merged[off] = merged.get(off, 0.0) + wt
    return tuple((off, wt) for off, wt in sorted(merged.items()) if wt != 0.0)


def _factor(x_cells, y_cells, subs):
    """Taps as a sum of (x taps) x (y taps) terms, one per distinct interval.

    Each sub-box contributes weight * (x difference) x (y difference).
    Sub-boxes sharing an interval on the axis with fewer distinct intervals
    share one term, whose other factor folds their weights per site, and
    intervals whose folded factors are equal share one term too. So equal
    weights on both sides of a split line cancel exactly, as in the folded
    taps: 1 term for single, split_h and split_v boxes, 2 for split_4 (1
    when its four weights are equal). A term that folds to no taps is left
    out.
    """
    x_ivs = {(ixl, ixh) for ixl, ixh, _, _, _ in subs}
    y_ivs = {(iyl, iyh) for _, _, iyl, iyh, _ in subs}
    if len(x_ivs) < len(y_ivs):
        swapped = _factor(y_cells, x_cells, tuple((iyl, iyh, ixl, ixh, w)
                                                  for ixl, ixh, iyl, iyh, w in subs))
        return tuple((xs, ys) for ys, xs in swapped)
    y_coefs = {}  # per distinct x factor, the folded y coefficients of its intervals
    for iyl, iyh in sorted(y_ivs):
        x_coefs = [0.0] * len(x_cells)
        for ixl, ixh, jl, jh, w in subs:
            if (jl, jh) == (iyl, iyh):
                x_coefs[ixh] += w
                x_coefs[ixl] -= w
        yc = y_coefs.setdefault(tuple(x_coefs), [0.0] * len(y_cells))
        yc[iyh] += 1.0
        yc[iyl] -= 1.0
    terms = ((_axis_taps(x_cells, xc), _axis_taps(y_cells, yc)) for xc, yc in y_coefs.items())
    return tuple((xs, ys) for xs, ys in terms if xs and ys)


def compile_plan(p: BoxParams) -> CornerSamplePlan:
    """Fold a feasible box into its corner-sample plan.

    A tap whose folded weight is exactly zero is dropped: a site on the
    lattice (a zero interpolation fraction, as at a window edge of +-1) and
    a site whose sub-box weights cancel (the split lines of an equal-weight
    split box) add nothing to any output.
    """
    xs, ys, subs = box_geometry(p)

    coeffs = [[0.0] * len(ys) for _ in range(len(xs))]
    for ixl, ixh, iyl, iyh, w in subs:
        coeffs[ixh][iyh] += w
        coeffs[ixl][iyl] += w
        coeffs[ixl][iyh] -= w
        coeffs[ixh][iyl] -= w

    x_cells = tuple((math.floor(v), v - math.floor(v)) for v in xs)
    y_cells = tuple((math.floor(v), v - math.floor(v)) for v in ys)

    taps = []
    for ix, (x0, a) in enumerate(x_cells):
        for iy, (y0, b) in enumerate(y_cells):
            c = coeffs[ix][iy]
            for dx, dy, wt in (
                (x0, y0, (1 - a) * (1 - b)),
                (x0 + 1, y0, a * (1 - b)),
                (x0, y0 + 1, (1 - a) * b),
                (x0 + 1, y0 + 1, a * b),
            ):
                w = c * wt
                if w != 0.0:
                    taps.append((dx, dy, w))

    return CornerSamplePlan(
        x_sites=xs,
        y_sites=ys,
        x_cells=x_cells,
        y_cells=y_cells,
        coeffs=tuple(tuple(row) for row in coeffs),
        sub_boxes=subs,
        taps=tuple(taps),
        terms=_factor(x_cells, y_cells, subs),
        max_kernel=p.max_kernel,
    )


def save_boxes(path, boxes) -> None:
    """One box per line: variant k xl xh yl yh [splits...] [weights...]."""
    lines = []
    for p in boxes:
        fields = [p.variant.value, str(p.max_kernel)]
        fields += [f"{t:.17g}" for t in p.thetas]
        fields += [f"{s:.17g}" for s in p.split_theta]
        if p.variant != BoxVariant.SINGLE:
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
                ns, nw = N_SPLITS[variant], N_WEIGHTS[variant]
                want = 4 + ns + (nw if variant != BoxVariant.SINGLE else 0)
                if len(vals) != want:
                    raise ValueError(f"expected {want + 2} fields, got {len(parts)}")
                splits = tuple(vals[4 : 4 + ns])
                weights = (
                    (1.0,) if variant == BoxVariant.SINGLE else tuple(vals[4 + ns :])
                )
                boxes.append(BoxParams(*vals[:4], k, variant, splits, weights))
            except (ValueError, KeyError, IndexError) as e:
                raise ValueError(f"{path}:{lineno}: bad box line: {e}") from e
    if not boxes:
        raise ValueError(f"{path}: no boxes found")
    return boxes
