import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satconv.boxes import (
    N_WEIGHTS,
    SPLIT_EDGES,
    BoxParams,
    BoxVariant,
    FeasibilityError,
    box_arrays,
    box_geometry,
    compile_plan,
    feasible,
    init_params,
    load_boxes,
    project_params,
    sample_init_thetas,
    save_boxes,
)
from satconv.layer import BoxConvLayer
from satconv.oracle import sample_bilinear
from satconv.sat import build_sat
from satconv.table import _corner_runs, lowering

finite_theta = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def project(p):
    """p moved into its feasible set by project_params."""
    theta, split, _ = box_arrays([p], p.variant)
    project_params(theta, split, p.variant)
    return BoxParams(*theta[0].tolist(), p.max_kernel, p.variant, split[0].tolist(),
                     p.split_weights)


def plan_of(p):
    return BoxConvLayer([p]).plan


def flat_taps(plan, c=0):
    """Channel c's (dx, dy, weight) lattice taps of non-zero weight, site by site."""
    w = plan.tap_weights()[c]
    return [(x0 + i, y0 + j, w[ix, iy, j, i])
            for ix, x0 in enumerate(plan.x_floor[c].tolist())
            for iy, y0 in enumerate(plan.y_floor[c].tolist())
            for j in (0, 1) for i in (0, 1) if w[ix, iy, j, i] != 0.0]


def sites(p):
    """The box's sample coordinates per axis, and its sub-boxes."""
    xs, ys, subs = box_geometry(*box_arrays([p], p.variant), p.max_kernel, p.variant)
    return xs[0].tolist(), ys[0].tolist(), subs


def test_even_kernel_rejected():
    with pytest.raises(ValueError):
        BoxParams(0, 0, 0, 0, 8)
    with pytest.raises(ValueError):
        BoxParams(0, 0, 0, 0, 1)


def test_project_feasible_unchanged():
    p = BoxParams(-0.3, 0.4, -0.1, 0.2, 9)
    assert project(p) == p


def test_project_clips():
    p = project(BoxParams(1.7, 2.0, 0.0, 0.1, 9))
    assert p.theta_xl == 1.0 and p.theta_xh == 1.0


def test_project_swaps_out_of_order():
    p = project(BoxParams(0.5, -0.5, 0.0, 0.1, 9))
    assert (p.theta_xl, p.theta_xh) == (-0.5, 0.5)


@given(ts=st.tuples(finite_theta, finite_theta, finite_theta, finite_theta),
       s=finite_theta)
@settings(max_examples=200, deadline=None)
def test_project_idempotent_and_feasible(ts, s):
    p = BoxParams(*ts, 9, BoxVariant.SPLIT_V, (s,), (1.0, 1.0))
    q = project(p)
    assert -1 <= q.theta_xl <= q.theta_xh <= 1
    assert -1 <= q.theta_yl <= q.theta_yh <= 1
    mid = 0.5 * (q.theta_xl + q.theta_xh)
    sx = q.split_theta[0]
    degenerate = not q.theta_xl < mid < q.theta_xh
    if degenerate:
        assert sx == mid
    else:
        assert q.theta_xl < sx < q.theta_xh
    assert project(q) == q


def _scalar_project(lo, hi, splits):
    """The projection rules one value at a time: clip, swap, re-center."""
    lo, hi = (min(max(t, -1.0), 1.0) for t in (lo, hi))
    lo, hi = (hi, lo) if lo > hi else (lo, hi)
    out = []
    for s in splits:
        mid = 0.5 * (lo + hi)
        if lo < mid < hi:
            margin = (hi - lo) * 1e-9
            s = min(max(s, lo + margin), hi - margin)
        out.append(s if lo < mid < hi and lo < s < hi else mid)
    return lo, hi, out


@pytest.mark.parametrize("variant", list(BoxVariant))
def test_array_projection_follows_the_scalar_rules(variant):
    """Bit for bit, on random and extreme edges (infinities, the window
    border and just past it, zeros of both signs, degenerate intervals)."""
    rng = np.random.default_rng(3)
    extremes = [-np.inf, np.inf, -1.0, 1.0, 0.0, -0.0, 1e-300, -1 - 2e-16, 1 + 2e-16, 5.0, -3.0]
    n = 4000
    theta = np.where(rng.uniform(size=(n, 4)) < 0.5, rng.uniform(-2, 2, size=(n, 4)),
                     rng.choice(extremes, size=(n, 4)))
    theta[: n // 4, 1] = theta[: n // 4, 0]
    split = np.where(rng.uniform(size=(n, 2)) < 0.5, rng.uniform(-2, 2, size=(n, 2)),
                     rng.choice(extremes, size=(n, 2)))[:, : _N_SPLITS[variant.value]]
    t, s = theta.copy(), split.copy()
    project_params(t, s, variant)
    # the low edge of the axis each split line divides, in split order
    axes = {"single": (), "split_h": (2,), "split_v": (0,), "split_4": (0, 2)}[variant.value]
    for c in range(n):
        want_t, want_s = theta[c].tolist(), []
        for lo in (0, 2):
            lines = [split[c, j] for j, e in enumerate(axes) if e == lo]
            want_t[lo], want_t[lo + 1], out = _scalar_project(*theta[c, lo : lo + 2], lines)
            want_s += out
        assert np.array(want_t).tobytes() == t[c].tobytes(), (theta[c], t[c])
        assert np.array(want_s, dtype=float).tobytes() == s[c].tobytes(), (split[c], s[c])
    assert feasible(t, s, np.ones((n, 1)), variant).all()


@pytest.mark.parametrize("variant", list(BoxVariant))
def test_projection_keeps_nan(variant):
    """A NaN edge or split is never projected to a finite value (np.fmin or
    nan_to_num would do that), so compile_plan rejects it."""
    p = init_params(9, variant, np.random.default_rng(0))
    for i in range(4 + len(p.split_theta)):
        theta, split, weight = box_arrays([p, p], variant)
        arr, j = (theta, i) if i < 4 else (split, i - 4)
        arr[1, j] = np.nan
        project_params(theta, split, variant)
        assert np.isnan(theta[1]).any() or np.isnan(split[1]).any(), i
        assert not feasible(theta, split, weight, variant)[1]
        assert feasible(theta, split, weight, variant)[0]


@pytest.mark.parametrize("variant", list(BoxVariant))
def test_init_respects_bounds(rng, variant):
    for _ in range(50):
        p = init_params(9, variant, rng)
        assert all(abs(t) <= 0.5 for t in p.thetas)
        assert p.theta_xl <= p.theta_xh and p.theta_yl <= p.theta_yh
        assert p.split_weights == (1.0,) * len(p.split_weights)


def test_init_deterministic():
    a = init_params(13, BoxVariant.SPLIT_4, np.random.default_rng(7))
    b = init_params(13, BoxVariant.SPLIT_4, np.random.default_rng(7))
    assert a == b


# The Kolmogorov-Smirnov statistic's exact 1% critical value for 10 000
# draws, scipy.stats.kstwo.ppf(0.99, 10000) = 0.01625928, rounded down.
KS_CRITICAL_1PCT_10K = 0.0162592


def test_init_marginal_is_uniform():
    """KS test of the raw edge draws against U(-0.5, 0.5) at alpha=0.01."""
    rng = np.random.default_rng(42)
    draws = np.sort([sample_init_thetas(rng)[0] for _ in range(10_000)])
    cdf, n = np.clip(draws + 0.5, 0.0, 1.0), len(draws)  # the U(-0.5, 0.5) CDF
    d = max((np.arange(1, n + 1) / n - cdf).max(), (cdf - np.arange(n) / n).max())
    assert d < KS_CRITICAL_1PCT_10K


def test_plan_integer_corners_collapse():
    p = BoxParams(-0.5, 0.25, -0.25, 0.5, 9)  # offsets -2, 1, -1, 2
    nonzero = flat_taps(plan_of(p))
    assert len(nonzero) == 4
    assert sorted(t[2] for t in nonzero) == [-1.0, -1.0, 1.0, 1.0]
    assert {(t[0], t[1]) for t in nonzero} == {(-2, -1), (2, -1), (-2, 3), (2, 3)}


@pytest.mark.parametrize("variant", list(BoxVariant))
def test_plan_terms_multiply_out_to_taps(rng, variant):
    """The factored terms are the folded taps: their outer products add up
    to the same weight at every lattice offset, with one term per y
    interval of the box (two for a split_h or split_4 box with unequal
    weights), or one where its rows fold (equal weights)."""
    for _ in range(20):
        p = init_params(int(rng.choice([5, 9, 13, 129])), variant, rng)
        unequal = BoxParams(*p.thetas, p.max_kernel, variant, p.split_theta,
                            tuple(rng.uniform(0.5, 1.5, size=len(p.split_weights))))
        two_rows = variant in (BoxVariant.SPLIT_H, BoxVariant.SPLIT_4)
        for q, n_terms in ((p, 1), (unequal, 2 if two_rows else 1)):
            plan = plan_of(q)
            terms = lowering(plan).terms[0]
            assert len(terms) == n_terms
            product = {}
            for xs, ys in terms:
                assert [o for o, _ in xs] == sorted({o for o, _ in xs})
                assert all(wt != 0.0 for _, wt in xs + ys)
                for dx, wx in xs:
                    for dy, wy in ys:
                        product[dx, dy] = product.get((dx, dy), 0.0) + wx * wy
            taps = {}  # sites of a narrow box can share a lattice offset
            for dx, dy, wt in flat_taps(plan):
                taps[dx, dy] = taps.get((dx, dy), 0.0) + wt
            for key in set(product) | set(taps):
                assert abs(product.get(key, 0.0) - taps.get(key, 0.0)) < 1e-14, (q, key)


def _loop_axis_taps(sites, coefs):
    """One axis's taps of sum_i coefs[i] * (site i's interpolated value), one
    site at a time: summed by offset, in offset order, exact zeros dropped."""
    merged = {}
    for v, c in zip(sites, coefs):
        c0 = math.floor(v)
        f = v - c0
        merged[c0] = merged.get(c0, 0.0) + c * (1 - f)
        merged[c0 + 1] = merged.get(c0 + 1, 0.0) + c * f
    return tuple((off, wt) for off, wt in sorted(merged.items()) if wt != 0.0)


def loop_terms(p):
    """One box's factored terms, built box by box in Python floats: the
    reference that compile_plan's array version must match bit for bit."""
    r = (p.max_kernel - 1) / 2
    t, w = p.thetas, p.split_weights
    splits = dict(zip(SPLIT_EDGES[p.variant], p.split_theta))
    xs, ys = ([t[lo] * r, *([splits[lo] * r] if lo in splits else []), t[lo + 1] * r + 1.0]
              for lo in (0, 2))
    if p.variant == BoxVariant.SINGLE:
        pairs = [((-w[0], w[0]), (-1.0, 1.0))]
    elif p.variant == BoxVariant.SPLIT_V:
        pairs = [((-w[0], w[0] - w[1], w[1]), (-1.0, 1.0))]
    else:  # a term per y interval, or one across both where the rows fold
        top, bottom = ((-w[0], w[0]), (-w[1], w[1])) if p.variant == BoxVariant.SPLIT_H else (
            (-w[0], w[0] - w[1], w[1]), (-w[2], w[2] - w[3], w[3]))
        pairs = ([(top, (-1.0, 0.0, 1.0))] if top == bottom
                 else [(top, (-1.0, 1.0, 0.0)), (bottom, (0.0, -1.0, 1.0))])
    terms = ((_loop_axis_taps(xs, xc), _loop_axis_taps(ys, yc)) for xc, yc in pairs)
    return tuple((a, b) for a, b in terms if a and b)


def edge_case_arrays(rng, k, variant, n):
    """n feasible boxes, many of them on the cases that merge or drop taps:
    edges and split lines on the lattice, at +-1 or on each other, and
    equal, zero, signed-zero or negative sub-box weights."""
    r = (k - 1) / 2
    theta = rng.uniform(-1.0, 1.0, size=(n, 4))
    pick = rng.random((n, 4))
    theta = np.where(pick < 0.3, rng.integers(-r, r + 1, size=(n, 4)) / r, theta)
    theta = np.where(pick > 0.9, rng.choice([-1.0, 1.0], size=(n, 4)), theta)
    theta = np.where(rng.random((n, 1)) < 0.1, theta[:, [0, 0, 2, 2]], theta)  # zero-width boxes
    theta = np.concatenate([np.sort(theta[:, :2], axis=1), np.sort(theta[:, 2:], axis=1)], axis=1)
    lo = theta[:, list(SPLIT_EDGES[variant])]
    hi = theta[:, [e + 1 for e in SPLIT_EDGES[variant]]]
    u = rng.choice([0.0, 1.0, 0.5, *rng.uniform(size=5)], size=lo.shape)
    split = np.clip(np.where(rng.random(lo.shape) < 0.3, np.round((lo + u * (hi - lo)) * r) / r,
                             lo + u * (hi - lo)), lo, hi)
    weight = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, *rng.normal(size=4)],
                        size=(n, N_WEIGHTS[variant]))
    weight[::3] = weight[::3, :1]  # all equal
    if variant == BoxVariant.SPLIT_4:
        weight[1::6, 2:] = weight[1::6, :2]  # top row == bottom row
    assert feasible(theta, split, weight, variant).all()
    return theta, split, weight


@pytest.mark.parametrize("variant", list(BoxVariant))
def test_plan_terms_match_the_box_by_box_loop(variant):
    """compile_plan builds the terms with array operations over the boxes;
    offsets, order and the bits of every weight equal the per-box loop's."""
    rng = np.random.default_rng(7)
    for k in (3, 5, 9, 13, 129):
        theta, split, weight = edge_case_arrays(rng, k, variant, 700)
        terms = lowering(compile_plan(theta, split, weight, k, variant)).terms
        for c, (t, s, w) in enumerate(zip(theta.tolist(), split.tolist(), weight.tolist())):
            p = BoxParams(*t, k, variant, s, w)
            assert _bits(terms[c]) == _bits(loop_terms(p)), p


@pytest.mark.parametrize("variant", list(BoxVariant))
def test_factored_coefficients_difference_to_the_folded_ones(variant):
    """cx holds each y interval's x-site coefficients and cy each x
    interval's y-site coefficients. Differencing either along its intervals
    (before minus after, 0 outside the box) gives the folded coefficients:
    coeffs is cx differenced, exactly; cy differenced matches it exactly for
    a single box, and within a few ulps of the largest weight for split
    boxes, whose two differences round in another order (three roundings
    each, which bound the difference by 8 ulps; 4 measured)."""
    rng = np.random.default_rng(11)
    pad = ((0, 0), (0, 0), (1, 1))
    for k in (3, 5, 9, 13, 129):
        theta, split, weight = edge_case_arrays(rng, k, variant, 700)
        plan = compile_plan(theta, split, weight, k, variant)
        cx, cy = np.pad(plan.cx, pad), np.pad(plan.cy, pad)
        assert np.array_equal(cx[..., :-1] - cx[..., 1:], plan.coeffs)
        got = (cy[..., :-1] - cy[..., 1:]).transpose(0, 2, 1)
        assert got.shape == plan.coeffs.shape
        if variant == BoxVariant.SINGLE:
            assert np.array_equal(got, plan.coeffs)
        else:
            ulp = np.spacing(np.abs(weight).max(axis=1))[:, None, None]
            assert (np.abs(got - plan.coeffs) <= 8 * ulp).all()


def test_cancelling_split_costs_the_taps_of_the_box_it_folds_to():
    """A split box whose sub-box weights cancel across a split line has
    the 16-tap cost model's count of the box it folds to: split_4 with
    weights (a, b, a, b) that of split_v (a, b) on the same edges and x
    split, (a, a, b, b) that of split_h (a, b), and any split box with all
    weights equal and nonzero that of the single box. The folded site
    coefficients on the cancelled line are exactly 0, as in the table
    engine's terms, not a rounding residue of the four sub-box weights."""
    rng = np.random.default_rng(5)
    n = 2000
    for k in (3, 5, 9, 13, 129):
        theta, split, _ = edge_case_arrays(rng, k, BoxVariant.SPLIT_4, n)
        a, b = rng.normal(size=(2, n))
        b[::7] = a[::7]  # some equal pairs too
        a[::11] = 0.0
        split_v = compile_plan(theta, split[:, :1], np.stack((a, b), 1), k, BoxVariant.SPLIT_V)
        split_h = compile_plan(theta, split[:, 1:], np.stack((a, b), 1), k, BoxVariant.SPLIT_H)
        for w, twin in (((a, b, a, b), split_v), ((a, a, b, b), split_h)):
            plan = compile_plan(theta, split, np.stack(w, 1), k, BoxVariant.SPLIT_4)
            assert np.array_equal(plan.n_taps, twin.n_taps)
        a[a == 0.0] = 1.0
        single = compile_plan(theta, split[:, :0], np.ones((n, 1)), k, BoxVariant.SINGLE)
        for variant in (BoxVariant.SPLIT_V, BoxVariant.SPLIT_H, BoxVariant.SPLIT_4):
            lines = split[:, [SPLIT_EDGES[BoxVariant.SPLIT_4].index(e)
                              for e in SPLIT_EDGES[variant]]]
            w = np.repeat(a[:, None], N_WEIGHTS[variant], axis=1)
            plan = compile_plan(theta, lines, w, k, variant)
            assert np.array_equal(plan.n_taps, single.n_taps), variant


def _loop_corner_runs(row):
    """One row's corner numbers and runs of consecutive corners, site by
    site: a site adds as many new corners as its floor lies above the one
    before, at most 2, and its two corners are then the last two distinct
    ones; it starts a run when its floor lies more than 2 above."""
    slot, starts, d = [0, 1], [(0, row[0])], 2
    for before, v in zip(row, row[1:]):
        if v - before > 2:
            starts.append((d, v))
        d += min(2, v - before)
        slot += [d - 2, d - 1]
    ends = [n for n, _ in starts[1:]] + [d]
    return slot, tuple((n, v, end - n) for (n, v), end in zip(starts, ends))


def test_corner_runs_match_the_site_by_site_loop():
    """The table engine numbers every box's distinct cell corners with one
    np.unique over the layer; the numbers and runs equal the per-site loop's."""
    rng = np.random.default_rng(3)
    for variant in BoxVariant:
        for k in (3, 5, 9, 13, 129):
            plan = compile_plan(*edge_case_arrays(rng, k, variant, 300), k, variant)
            for floors in (plan.x_floor, plan.y_floor):
                slots, runs = _corner_runs(floors)
                want = [_loop_corner_runs(row) for row in floors.tolist()]
                assert slots.tolist() == [slot for slot, _ in want]
                assert runs == [r for _, r in want]


def _bits(terms):
    return [tuple(tuple((off, wt.hex()) for off, wt in taps) for taps in term) for term in terms]


def test_plan_sample_counts():
    rng = np.random.default_rng(1)
    want = {
        BoxVariant.SINGLE: 16,
        BoxVariant.SPLIT_H: 24,
        BoxVariant.SPLIT_V: 24,
        BoxVariant.SPLIT_4: 36,
    }
    n_sites = {
        BoxVariant.SINGLE: 4,
        BoxVariant.SPLIT_H: 6,
        BoxVariant.SPLIT_V: 6,
        BoxVariant.SPLIT_4: 9,
    }
    for variant, n in want.items():
        p = init_params(9, variant, rng)
        # unequal sub-box weights, as trained boxes have: no site cancels
        weights = tuple(rng.uniform(0.5, 1.5, size=len(p.split_weights)))
        if variant != BoxVariant.SINGLE:
            p = BoxParams(*p.thetas, 9, variant, p.split_theta, weights)
        plan = plan_of(p)
        assert list(plan.n_taps) == [n] and len(flat_taps(plan)) == n
        assert plan.x_floor.shape[1] * plan.y_floor.shape[1] == n_sites[variant]


def test_plan_matches_four_corner_sampling(rng):
    """Tap evaluation equals interpolated sampling at the four corners with
    the region-sum sign pattern, done through the public sat API."""
    plane = rng.normal(size=(10, 10))
    sat = build_sat(plane)
    p = init_params(9, BoxVariant.SINGLE, rng)
    cx = cy = 5
    got = sum(w * sat[cy + dy, cx + dx] for dx, dy, w in flat_taps(plan_of(p)))
    (xl, xh1), (yl, yh1), _ = sites(p)
    want = (
        sample_bilinear(sat, cx + xh1, cy + yh1)
        + sample_bilinear(sat, cx + xl, cy + yl)
        - sample_bilinear(sat, cx + xl, cy + yh1)
        - sample_bilinear(sat, cx + xh1, cy + yl)
    )
    assert abs(got - want) < 1e-12


def test_split_with_equal_weights_matches_scaled_single(rng):
    for variant in (BoxVariant.SPLIT_V, BoxVariant.SPLIT_H):
        base = init_params(9, variant, rng)
        w = 0.7
        split = BoxParams(*base.thetas, 9, variant, base.split_theta, (w, w))
        single = BoxParams(*base.thetas, 9)
        x = rng.normal(size=(1, 8, 8))
        out_split, _ = BoxConvLayer([split]).forward(x)
        out_single, _ = BoxConvLayer([single]).forward(x)
        assert np.max(np.abs(out_split - w * out_single)) < 1e-12


_N_SPLITS = {"single": 0, "split_h": 1, "split_v": 1, "split_4": 2}
_N_WEIGHTS = {"single": 1, "split_h": 2, "split_v": 2, "split_4": 4}


def draw_projected_box(data, ks=(5, 9, 13)):
    k = data.draw(st.sampled_from(list(ks)))
    variant = data.draw(st.sampled_from(list(BoxVariant)))
    ts = [data.draw(finite_theta) for _ in range(4)]
    splits = tuple(data.draw(finite_theta) for _ in range(_N_SPLITS[variant.value]))
    weights = (1.0,) * _N_WEIGHTS[variant.value]
    return project(BoxParams(*ts, k, variant, splits, weights))


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_plan_taps_stay_in_window_plus_one(data):
    p = draw_projected_box(data)
    r = (p.max_kernel - 1) // 2
    for dx, dy, w in flat_taps(plan_of(p)):
        if w != 0.0:
            assert -r <= dx <= r + 1 and -r <= dy <= r + 1


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_plan_area_on_constant_source(data):
    """Evaluating a plan on all-ones equals the weighted continuous area."""
    k = data.draw(st.sampled_from([5, 9]))
    variant = data.draw(st.sampled_from(list(BoxVariant)))
    rng = np.random.default_rng(data.draw(st.integers(0, 10_000)))
    p = init_params(k, variant, rng)
    weights = tuple(data.draw(st.floats(-2, 2)) for _ in p.split_weights)
    if variant != BoxVariant.SINGLE:
        p = BoxParams(*p.thetas, k, variant, p.split_theta, weights)
    n = 2 * k
    x = np.ones((1, n, n))
    out, _ = BoxConvLayer([p]).forward(x)
    center = out[0, n // 2, n // 2]
    xs, ys, subs = sites(p)
    area = sum(w * (xs[ixh] - xs[ixl]) * (ys[iyh] - ys[iyl])
               for (ixl, ixh, iyl, iyh), w in zip(subs, p.split_weights))
    assert abs(center - area) < 1e-9


def test_plan_continuity_under_tiny_perturbation(rng):
    p = init_params(9, BoxVariant.SINGLE, rng)
    x = rng.normal(size=(1, 12, 12))
    base, _ = BoxConvLayer([p]).forward(x)
    eps = 1e-6
    q = BoxParams(p.theta_xl, p.theta_xh + eps, p.theta_yl, p.theta_yh, 9)
    moved, _ = BoxConvLayer([q]).forward(x)
    assert np.max(np.abs(moved - base)) < 100 * eps * np.max(np.abs(x)) * 9


def test_infeasible_params_rejected():
    for bad in (
        BoxParams(0.5, -0.5, 0.0, 0.0, 9),
        BoxParams(-1.5, 0.5, 0.0, 0.0, 9),
        BoxParams(np.nan, 0.5, 0.0, 0.0, 9),
        BoxParams(-0.5, 0.5, 0.0, 0.0, 9, BoxVariant.SPLIT_V, (0.9,), (1.0, 1.0)),
        BoxParams(-0.5, 0.5, 0.0, 0.0, 9, BoxVariant.SPLIT_V, (0.1,), (1.0, np.inf)),
    ):
        good = replace(bad, theta_xl=-0.5, theta_xh=0.5,
                       split_theta=(0.0,) * len(bad.split_theta),
                       split_weights=(1.0,) * len(bad.split_weights))
        theta, split, weight = box_arrays([good, good, bad], bad.variant)
        assert list(feasible(theta, split, weight, bad.variant)) == [True, True, False]
        with pytest.raises(FeasibilityError, match="channel 2"):
            compile_plan(theta, split, weight, 9, bad.variant)
        with pytest.raises(FeasibilityError, match="channel 0"):
            BoxConvLayer([bad])


def test_box_file_roundtrip(tmp_path, rng):
    boxes = [init_params(k, v, rng) for k in (5, 9) for v in BoxVariant]
    path = tmp_path / "boxes.txt"
    save_boxes(path, boxes)
    assert load_boxes(path) == boxes


def test_box_file_rejects_bad_lines(tmp_path):
    path = tmp_path / "boxes.txt"
    path.write_text("single 9 0.1 0.2\n")
    with pytest.raises(ValueError):
        load_boxes(path)
    path.write_text("wedge 9 0 0 0 0\n")
    with pytest.raises(ValueError):
        load_boxes(path)
    path.write_text("")
    with pytest.raises(ValueError):
        load_boxes(path)


@pytest.mark.parametrize("line", [
    "single 9 nan 2.0 0.3 -0.2",
    "single 9 -0.5 1.5 -0.2 0.3",
    "split_v 9 -0.5 0.5 -0.2 0.3 0.9 1 1",  # split line right of the high edge
    "split_h 9 -0.5 0.5 -0.2 0.3 0.1 1 nan",
])
def test_box_file_rejects_infeasible_boxes(tmp_path, line):
    path = tmp_path / "boxes.txt"
    path.write_text("single 9 -0.5 0.5 -0.2 0.3\n" + line + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: ") + ".*infeasible"):
        load_boxes(path)
