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
lattice cells and site coefficients factored per axis: every sub-box is an
x difference times a y difference of the table (Heckbert, "Filtering by
Repeated Integration", 1986), so per interval between consecutive sites on
one axis the plan holds the site coefficients on the other (cx, cy), its
one stored box form. Both of the layer's routes read it: banded.py builds
its matrices from it, table.py its terms of x taps times y taps. BoxParams
is the record of one box, for box files, pictures and the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

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


@dataclass(frozen=True)
class CornerSamplePlan:
    """Compiled lattice taps for a layer's C boxes.

    A sample site at coordinate v reads the lattice cell (floor, floor + 1)
    with interpolation fraction v - floor. x_floor and x_frac are (C, nx),
    y_floor and y_frac (C, ny).

    cx (C, nx, ny - 1) holds the taps factored: cx[:, :, g] weighs the x
    sites of the sub-boxes over y interval g (between y sites g and g + 1),
    each by the weight of the x interval before it minus that of the one
    after it, 0 outside the box. cy (C, ny, nx - 1) weighs the y sites per
    x interval alike. coeffs, cx differenced along its intervals, is each
    site's folded signed weight; cy differenced gives the same up to
    rounding.

    cache holds what a route derives from the plan, built on first use:
    the banded route's matrices per plane size (h, w) and the table
    engine's lowering under "table".
    """

    x_floor: np.ndarray
    x_frac: np.ndarray
    y_floor: np.ndarray
    y_frac: np.ndarray
    cx: np.ndarray
    cy: np.ndarray
    sub_boxes: tuple
    variant: BoxVariant
    max_kernel: int
    cache: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    @property
    def coeffs(self) -> np.ndarray:
        """(C, nx, ny): cx differenced along its intervals, before minus
        after, with a zero interval outside the box. A site whose sub-box
        weights cancel, as on a split line between equal weights, folds to
        exactly 0."""
        c, nx, g = self.cx.shape
        coeffs = np.zeros((c, nx, g + 1))
        coeffs[..., 1:] = self.cx
        coeffs[..., :-1] -= self.cx
        return coeffs

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


def compile_plan(theta, split, weight, k: int, variant) -> CornerSamplePlan:
    """Fold a layer's feasible boxes into their corner-sample plan.

    A tap whose folded weight is exactly zero is dropped: a site on the
    lattice (a zero interpolation fraction, as at a window edge of +-1) and
    a site whose sub-box weights cancel (the split lines of an equal-weight
    split box) add nothing to any output.
    """
    xs, ys, subs = box_geometry(theta, split, weight, k, variant)
    # each sub-box's weight on its (x interval, y interval), with a zero
    # interval before and after the box on each axis
    cells = np.zeros((len(xs), xs.shape[1] + 1, ys.shape[1] + 1))
    for i, (ixl, _, iyl, _) in enumerate(subs):
        cells[:, ixl + 1, iyl + 1] = weight[:, i]
    cx = cells[:, :-1, 1:-1] - cells[:, 1:, 1:-1]
    cy = (cells[:, 1:-1, :-1] - cells[:, 1:-1, 1:]).transpose(0, 2, 1)
    sites = np.concatenate((xs, ys), axis=1)
    floor = np.floor(sites)
    frac = sites - floor
    floor = floor.astype(np.int64)
    nx = xs.shape[1]
    return CornerSamplePlan(floor[:, :nx], frac[:, :nx], floor[:, nx:], frac[:, nx:], cx, cy,
                            subs, BoxVariant(variant), k)


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
