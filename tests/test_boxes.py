import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satconv.boxes import (
    BoxParams,
    BoxVariant,
    FeasibilityError,
    compile_plan,
    init_params,
    load_boxes,
    project_params,
    sample_init_thetas,
    save_boxes,
    theta_to_pixel,
)
from satconv.layer import BoxConvLayer
from satconv.sat import build_sat, sample_bilinear

finite_theta = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def test_theta_to_pixel_values():
    assert theta_to_pixel(0.0, 13) == 0.0
    assert theta_to_pixel(1.0, 13) == 6.0
    assert theta_to_pixel(-0.5, 9) == -2.0


def test_theta_to_pixel_contract():
    with pytest.raises(FeasibilityError):
        theta_to_pixel(1.2, 9)
    with pytest.raises(ValueError):
        theta_to_pixel(0.5, 8)


def test_even_kernel_rejected():
    with pytest.raises(ValueError):
        BoxParams(0, 0, 0, 0, 8)
    with pytest.raises(ValueError):
        BoxParams(0, 0, 0, 0, 1)


def test_project_feasible_unchanged():
    p = BoxParams(-0.3, 0.4, -0.1, 0.2, 9)
    assert project_params(p) == p


def test_project_clips():
    p = project_params(BoxParams(1.7, 2.0, 0.0, 0.1, 9))
    assert p.theta_xl == 1.0 and p.theta_xh == 1.0


def test_project_swaps_out_of_order():
    p = project_params(BoxParams(0.5, -0.5, 0.0, 0.1, 9))
    assert (p.theta_xl, p.theta_xh) == (-0.5, 0.5)


@given(ts=st.tuples(finite_theta, finite_theta, finite_theta, finite_theta),
       s=finite_theta)
@settings(max_examples=200, deadline=None)
def test_project_idempotent_and_feasible(ts, s):
    p = BoxParams(*ts, 9, BoxVariant.SPLIT_V, (s,), (1.0, 1.0))
    q = project_params(p)
    assert -1 <= q.theta_xl <= q.theta_xh <= 1
    assert -1 <= q.theta_yl <= q.theta_yh <= 1
    mid = 0.5 * (q.theta_xl + q.theta_xh)
    sx = q.split_theta[0]
    degenerate = not q.theta_xl < mid < q.theta_xh
    if degenerate:
        assert sx == mid
    else:
        assert q.theta_xl < sx < q.theta_xh
    assert project_params(q) == q


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


def test_init_marginal_is_uniform():
    """KS test of the raw edge draws against U(-0.5, 0.5) at alpha=0.01."""
    from scipy import stats

    rng = np.random.default_rng(42)
    draws = np.array([sample_init_thetas(rng)[0] for _ in range(10_000)])
    result = stats.kstest(draws, stats.uniform(loc=-0.5, scale=1.0).cdf)
    assert result.pvalue > 0.01


def test_plan_integer_corners_collapse():
    p = BoxParams(-0.5, 0.25, -0.25, 0.5, 9)  # offsets -2, 1, -1, 2
    plan = compile_plan(p)
    nonzero = [t for t in plan.taps if t[2] != 0.0]
    assert len(nonzero) == 4
    assert sorted(t[2] for t in nonzero) == [-1.0, -1.0, 1.0, 1.0]
    assert {(t[0], t[1]) for t in nonzero} == {(-2, -1), (2, -1), (-2, 3), (2, 3)}


def test_plan_sample_counts():
    rng = np.random.default_rng(1)
    want = {
        BoxVariant.SINGLE: 16,
        BoxVariant.SPLIT_H: 24,
        BoxVariant.SPLIT_V: 24,
        BoxVariant.SPLIT_4: 36,
    }
    sites = {
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
        plan = compile_plan(p)
        assert plan.n_samples == n
        assert len(plan.x_sites) * len(plan.y_sites) == sites[variant]


def test_plan_matches_four_corner_sampling(rng):
    """Tap evaluation equals interpolated sampling at the four corners with
    the region-sum sign pattern, done through the public sat API."""
    plane = rng.normal(size=(10, 10))
    sat = build_sat(plane)
    p = init_params(9, BoxVariant.SINGLE, rng)
    plan = compile_plan(p)
    cx = cy = 5
    got = sum(w * sat[cy + dy, cx + dx] for dx, dy, w in plan.taps)
    (xl, xh1), (yl, yh1) = plan.x_sites, plan.y_sites
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
    return project_params(BoxParams(*ts, k, variant, splits, weights))


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_plan_taps_stay_in_window_plus_one(data):
    p = draw_projected_box(data)
    plan = compile_plan(p)
    r = (p.max_kernel - 1) // 2
    for dx, dy, w in plan.taps:
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
    plan = compile_plan(p)
    n = 2 * k
    x = np.ones((1, n, n))
    out, _ = BoxConvLayer([p]).forward(x)
    center = out[0, n // 2, n // 2]
    xs, ys = plan.x_sites, plan.y_sites
    area = sum(w * (xs[ixh] - xs[ixl]) * (ys[iyh] - ys[iyl])
               for ixl, ixh, iyl, iyh, w in plan.sub_boxes)
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
    with pytest.raises(FeasibilityError):
        compile_plan(BoxParams(0.5, -0.5, 0.0, 0.0, 9))
    with pytest.raises(FeasibilityError):
        compile_plan(BoxParams(-1.5, 0.5, 0.0, 0.0, 9))


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
