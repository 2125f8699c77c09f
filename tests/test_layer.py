import math
from dataclasses import replace

import numpy as np
import pytest

import satconv.layer
import satconv.table
from satconv.boxes import N_WEIGHTS, BoxParams, BoxVariant, init_params
from satconv.dense import conv2d
from satconv.fmap import DimensionError
from satconv.layer import BoxConvLayer
from satconv.oracle import DenseKernel, effective_kernel, naive_conv
from satconv.sat import build_sat


def test_point_box_is_identity(rng):
    x = rng.normal(size=(2, 7, 6))
    layer = BoxConvLayer([BoxParams(0, 0, 0, 0, 9), BoxParams(0, 0, 0, 0, 9)])
    out, _ = layer.forward(x)
    assert np.max(np.abs(out - x)) < 1e-12


def test_full_window_box_equals_ones_kernel(rng):
    k = 5
    x = rng.normal(size=(1, 9, 8))
    layer = BoxConvLayer([BoxParams(-1, 1, -1, 1, k)])
    out, _ = layer.forward(x)
    want = naive_conv(x[0], DenseKernel(np.ones((k, k))))
    assert np.max(np.abs(out[0] - want)) < 1e-9


@pytest.mark.parametrize("variant", list(BoxVariant))
def test_forward_matches_effective_kernel(rng, variant):
    for _ in range(6):
        k = int(rng.choice([5, 9, 13]))
        p = init_params(k, variant, rng)
        x = rng.normal(size=(1, int(rng.integers(6, 12)), int(rng.integers(6, 12))))
        out, _ = BoxConvLayer([p]).forward(x)
        want = naive_conv(x[0], effective_kernel(p))
        scale = max(1e-12, float(np.max(np.abs(want))))
        assert np.max(np.abs(out[0] - want)) / scale < 1e-12


def _grid_cotangent(rng, shape, s):
    """The cotangent of a loss read on every s-th output row and column:
    random there, zero between. Tests parametrized by stride read their
    losses so."""
    g = np.zeros(shape)
    g[..., ::s, ::s] = rng.normal(size=g[..., ::s, ::s].shape)
    return g


def test_backward_theta_xh_area_growth():
    """Moving the high x edge grows a constant-source response at the rate
    (box y extent) per pixel of edge travel, chained through the theta map."""
    k = 9
    r = (k - 1) / 2
    p = BoxParams(-0.3, 0.2, -0.4, 0.3, k)
    layer = BoxConvLayer([p])
    x = np.ones((1, 15, 15))
    out, saved = layer.forward(x)
    g = np.zeros_like(out)
    g[0, 7, 7] = 1.0
    bg = layer.backward(saved, g).grad_boxes[0]
    box_height = (p.theta_yh - p.theta_yl) * r + 1.0
    assert abs(bg.theta[1] - box_height * r) < 1e-9


def test_backward_zero_cotangent_gives_zero_grads(rng):
    p = init_params(9, BoxVariant.SPLIT_4, rng)
    layer = BoxConvLayer([p])
    x = rng.normal(size=(1, 8, 8))
    out, saved = layer.forward(x)
    grads = layer.backward(saved, np.zeros_like(out))
    assert not grads.grad_input.any()
    bg = grads.grad_boxes[0]
    assert not bg.theta.any() and not bg.split.any() and not bg.weight.any()


def test_exact_adjoint_identity(rng):
    """forward is linear in the input, so <backward g, v> == <g, forward v>."""
    for variant in BoxVariant:
        p = init_params(9, variant, rng)
        layer = BoxConvLayer([p])
        x = rng.normal(size=(1, 10, 9))
        out, saved = layer.forward(x)
        g = rng.normal(size=out.shape)
        gin = layer.backward(saved, g).grad_input
        v = rng.normal(size=x.shape)
        fv, _ = layer.forward(v)
        lhs = float(np.sum(gin * v))
        rhs = float(np.sum(g * fv))
        assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), 1.0)


def test_multadd_counts(rng):
    layer = BoxConvLayer([init_params(13, BoxVariant.SINGLE, rng)])
    assert layer.multadd_count((1, 64, 64)) == 64 * 64 * 16  # 16 per output pixel
    p4 = init_params(9, BoxVariant.SPLIT_4, rng)
    # unequal sub-box weights: with equal ones the split-line sites cancel
    p4 = BoxParams(*p4.thetas, 9, BoxVariant.SPLIT_4, p4.split_theta, (0.5, 1.0, 1.5, 2.5))
    layer4 = BoxConvLayer([p4])
    assert layer4.multadd_count((1, 10, 10)) == 100 * 36
    # independent of declared window size
    for k in (7, 21):
        lk = BoxConvLayer([init_params(k, BoxVariant.SINGLE, rng)])
        assert lk.multadd_count((1, 32, 32)) == 32 * 32 * 16


def test_forward_independent_of_declared_k(rng):
    """Two windows whose boxes land on identical pixel offsets agree bitwise."""
    x = rng.normal(size=(1, 12, 12))
    a = BoxParams(-0.5, 0.5, -0.25, 0.25, 9)    # offsets -2..2, -1..1
    b = BoxParams(-0.25, 0.25, -0.125, 0.125, 17)
    out_a, _ = BoxConvLayer([a]).forward(x)
    out_b, _ = BoxConvLayer([b]).forward(x)
    assert np.array_equal(out_a, out_b)


def test_zero_padding_consistency(rng):
    p = init_params(9, BoxVariant.SINGLE, rng)
    x = rng.normal(size=(1, 8, 8))
    direct, _ = BoxConvLayer([p]).forward(x)
    m = 6
    canvas = np.zeros((1, 8 + 2 * m, 8 + 2 * m))
    canvas[:, m : m + 8, m : m + 8] = x
    embedded, _ = BoxConvLayer([p]).forward(canvas)
    assert np.max(np.abs(embedded[:, m : m + 8, m : m + 8] - direct)) < 1e-9


def test_gradient_continuous_across_crossing_on_flat_source():
    """On a constant source the edge gradient is (box extent) * (k-1)/2 on
    both sides of an integer corner crossing; approaching the crossing from
    either side must agree to rounding."""
    k = 9
    x = np.ones((1, 18, 18))
    g = np.zeros((1, 18, 18))
    g[0, 9, 9] = 1.0
    eps = 1e-7
    vals = []
    for t in (0.5 - eps, 0.5 + eps):  # offset crosses the lattice at 2.0
        layer = BoxConvLayer([BoxParams(-0.4, t, -0.35, 0.45, k)])
        _, saved = layer.forward(x)
        vals.append(layer.backward(saved, g).grad_boxes[0].theta[1])
    assert abs(vals[0] - vals[1]) < 1e-9 * max(abs(vals[0]), 1.0)


def test_layer_validation(rng):
    with pytest.raises(DimensionError):
        BoxConvLayer([])
    with pytest.raises(DimensionError):
        BoxConvLayer([init_params(9, rng=rng), init_params(13, rng=rng)])
    with pytest.raises(DimensionError, match="variant"):
        BoxConvLayer([init_params(9, rng=rng), init_params(9, BoxVariant.SPLIT_4, rng)])
    layer = BoxConvLayer([init_params(9, rng=rng)])
    with pytest.raises(DimensionError):
        layer.forward(rng.normal(size=(2, 4, 4)))
    out, saved = layer.forward(rng.normal(size=(1, 4, 4)))
    with pytest.raises(DimensionError):
        layer.backward(saved, np.zeros((1, 3, 3)))


@pytest.mark.parametrize("side", [satconv.layer.BANDED_MAX_SIDE, 0])  # banded, table engine
def test_backward_reads_its_cotangent_as_a_feature_map(rng, monkeypatch, side):
    """A complex cotangent is rejected, as a complex input is, not cut to its
    real part; a float32 one gives the float64 result."""
    monkeypatch.setattr(satconv.layer, "BANDED_MAX_SIDE", side)
    layer = BoxConvLayer([init_params(9, BoxVariant.SPLIT_4, rng) for _ in range(2)])
    y, saved = layer.forward(rng.normal(size=(2, 2, 7, 9)))
    g = rng.normal(size=y.shape).astype(np.float32)
    with pytest.raises(TypeError, match="real"):
        layer.backward(saved, g + 1j)
    got, want = layer.backward(saved, g), layer.backward(saved, g.astype(np.float64))
    assert got.grad_input.dtype == np.float64
    for a, b in zip((got.grad_input, *vars(got.boxes).values()),
                    (want.grad_input, *vars(want.boxes).values())):
        assert np.array_equal(a, b)


def test_recompile_reads_the_arrays(rng):
    layer = BoxConvLayer([BoxParams(0, 0, 0, 0, 9), BoxParams(0, 0, 0, 0, 9)])
    x = rng.normal(size=(2, 6, 6))
    out1, saved = layer.forward(x)
    layer.theta[1] = (-1, 1, -1, 1)
    layer.recompile()
    assert layer.boxes[1] == BoxParams(-1, 1, -1, 1, 9)
    out2, _ = layer.forward(x)
    assert np.array_equal(out2[0], out1[0]) and not np.allclose(out2[1], out1[1])
    assert np.array_equal(out2, BoxConvLayer(layer.boxes).forward(x)[0])
    # a forward's saved plan is its own: backward after a recompile still
    # differentiates the boxes that forward ran
    grad = layer.backward(saved, np.ones_like(out1)).grad_input
    assert np.array_equal(grad[1], BoxConvLayer([BoxParams(0, 0, 0, 0, 9)]).forward(
        np.ones((1, 6, 6)))[0][0])


@pytest.mark.parametrize(
    "where, bad",
    [
        ((3, 4), np.nan),   # interior NaN
        ((0, 0), np.inf),   # first pixel: feeds every table entry but row/column 0
        ((3, 4), -np.inf),  # interior inf
    ],
)
def test_forward_rejects_non_finite_input(rng, where, bad):
    x = rng.normal(size=(3, 7, 9))
    x[1][where] = bad
    layer = BoxConvLayer([init_params(9, rng=rng) for _ in range(3)])
    with pytest.raises(ValueError, match="channel 1"):
        layer.forward(x)


def test_forward_rejects_overflowing_sums(rng, monkeypatch):
    # the table engine's running sums; tests/test_banded.py has the banded route's
    monkeypatch.setattr(satconv.layer, "BANDED_MAX_SIDE", 0)
    layer = BoxConvLayer([init_params(9, rng=rng) for _ in range(2)])
    x = rng.normal(size=(2, 6, 6))
    x[0] = 1e308  # every pixel finite, every row sum overflows
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="channel 0"):
        layer.forward(x)
    # rows sum to zero, so the total and the table's bottom-right entry stay
    # finite, but the first column's running sum overflows
    x = rng.normal(size=(2, 6, 6))
    x[1, :, 0], x[1, :, 1] = 1e308, -1e308
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="channel 1"):
        layer.forward(x)
    x[1] *= 1e-300  # the same pattern at a finite scale is accepted
    out, _ = layer.forward(x)
    assert np.isfinite(out).all()


def _layer_arrays(layer, x, g):
    y, saved = layer.forward(x)
    grads = layer.backward(saved, g)
    b = grads.boxes
    return [y, grads.grad_input, b.theta, b.split, b.weight]


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("rank4", [False, True])
@pytest.mark.parametrize("variant", list(BoxVariant))
def test_channel_blocks_match_one_channel_blocks(rng, monkeypatch, variant, rank4, stride):
    """The table engine runs a layer plane by plane, each with its channel's
    share of the plan. Every channel of a four-channel layer gives the bytes
    of a one-channel layer of its box: forward output, input gradient and
    box gradients, whole planes and one-row strips alike."""
    monkeypatch.setattr(satconv.layer, "BANDED_MAX_SIDE", 0)
    n, c, h, w = 3 if rank4 else 1, 4, 12, 11
    shape = ((n,) if rank4 else ()) + (c, h, w)
    budgets = (satconv.table.STRIP_BYTES, 8 * w)  # whole planes, one-row strips
    for k in (3, 5, 13, 41, 129):
        boxes = [init_params(k, variant, rng) for _ in range(c - 1)]
        boxes.append(BoxParams(-1.0, 1.0, -1.0, 1.0, k, variant, _EDGE_SPLITS[variant],
                               boxes[0].split_weights))
        if variant != BoxVariant.SINGLE:
            boxes = [replace(p, split_weights=tuple(rng.uniform(-1.5, 1.5, len(p.split_weights))))
                     for p in boxes]
        layer = BoxConvLayer(boxes)
        x = rng.normal(size=shape)
        g = _grid_cotangent(rng, shape, stride)
        for budget in budgets:
            monkeypatch.setattr(satconv.table, "STRIP_BYTES", budget)
            got = _layer_arrays(layer, x, g)
            for i, p in enumerate(boxes):
                one = _layer_arrays(BoxConvLayer([p]), x[..., i : i + 1, :, :],
                                    g[..., i : i + 1, :, :])
                # the channel axis: -3 for output and input gradient, -2 for boxes
                for j, (a, b) in enumerate(zip(got, one)):
                    assert np.take(a, [i], axis=-3 if j < 2 else -2).tobytes() == b.tobytes()


@pytest.mark.parametrize("variant", list(BoxVariant))
def test_zero_weight_box_on_both_routes(rng, monkeypatch, variant):
    """A box whose sub-box weights are all zero folds to no terms: its
    output and input gradient are zero on both routes, and its weight
    gradients, each <g, response of one sub-box>, agree between them."""
    p = replace(init_params(9, variant, rng), split_weights=(0.0,) * N_WEIGHTS[variant])
    layer = BoxConvLayer([p, init_params(9, variant, rng)])
    x = rng.normal(size=(2, 2, 12, 11))
    g = rng.normal(size=x.shape)
    got = []
    for side in (satconv.layer.BANDED_MAX_SIDE, 0):  # banded route, then the table engine
        monkeypatch.setattr(satconv.layer, "BANDED_MAX_SIDE", side)
        y, grad_input, *boxes = _layer_arrays(layer, x, g)
        assert not y[:, 0].any() and not grad_input[:, 0].any()
        got.append(boxes)
    for a, b in zip(*got):  # a single box's split gradient is empty
        assert np.abs(a - b).max(initial=0.0) <= 1e-12 * np.abs(a).max(initial=1.0)


def test_non_finite_channel_in_a_block_is_named(rng, monkeypatch):
    monkeypatch.setattr(satconv.layer, "BANDED_MAX_SIDE", 0)  # the table engine
    layer = BoxConvLayer([init_params(9, rng=rng) for _ in range(4)])
    x = rng.normal(size=(2, 4, 16, 16))
    x[1, 2, 5, 7] = np.nan
    with pytest.raises(ValueError, match="channel 2:"):
        layer.forward(x)
    x[0, 3, 0, 0] = np.inf  # a later channel's bad pixel does not hide it
    with pytest.raises(ValueError, match="channel 2:"):
        layer.forward(x)


# Boxes whose sample sites sit exactly on the lattice (k=9 maps theta to
# 4 * theta px), and boxes whose every site reads the replicated margin
# (k=41 on an 8x7 image: every site lies at least 3 px beyond the table for
# every output pixel). Stepping any one site right by 0.25 px keeps the box
# feasible.
_LATTICE_SPLITS = {
    BoxVariant.SINGLE: ((), (1.0,)),
    BoxVariant.SPLIT_H: ((-0.25,), (0.8, 1.3)),
    BoxVariant.SPLIT_V: ((0.0,), (1.2, 0.7)),
    BoxVariant.SPLIT_4: ((0.0, -0.25), (0.7, 1.3, 0.9, 1.1)),
}
_MARGIN_SPLITS = {
    BoxVariant.SINGLE: (),
    BoxVariant.SPLIT_H: (-0.6,),
    BoxVariant.SPLIT_V: (0.5,),
    BoxVariant.SPLIT_4: (0.5, -0.6),
}


def _edge_case_box(kind, variant):
    splits, weights = _LATTICE_SPLITS[variant]
    if kind == "lattice":
        return BoxParams(-0.5, 0.25, -0.75, 0.5, 9, variant, splits, weights), (12, 11)
    return (BoxParams(-0.9, 0.85, -0.95, 0.8, 41, variant, _MARGIN_SPLITS[variant], weights),
            (8, 7))


def _with_coord(p, i, value):
    """p with its i-th position parameter (4 edges, then splits) set to value."""
    coords = list(p.thetas) + list(p.split_theta)
    coords[i] = value
    return BoxParams(*coords[:4], p.max_kernel, p.variant, tuple(coords[4:]), p.split_weights)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("variant", list(BoxVariant))
@pytest.mark.parametrize("kind", ["lattice", "margin"])
def test_position_gradients_on_lattice_and_in_margin(rng, kind, variant, stride):
    """Edge and split gradients where gradcheck never looks: sites exactly on
    the lattice, where the analytic gradient is the right-sided slope, and
    sites in the replicated margin, where it is zero. The output is linear in
    a site's position within its lattice cell, so a 0.25 px right step gives
    the slope up to rounding."""
    p, (h, w) = _edge_case_box(kind, variant)
    x = rng.normal(size=(1, h, w))
    layer = BoxConvLayer([p])
    out, saved = layer.forward(x)
    g = _grid_cotangent(rng, out.shape, stride)
    bg = layer.backward(saved, g).grad_boxes[0]
    analytic = np.concatenate([bg.theta, bg.split])
    if kind == "margin":
        assert not analytic.any()

    def loss(q):
        return float(np.sum(g * BoxConvLayer([q]).forward(x)[0]))

    step = 0.25 / ((p.max_kernel - 1) / 2)
    coords = list(p.thetas) + list(p.split_theta)
    base = loss(p)
    for i, t in enumerate(coords):
        fd = (loss(_with_coord(p, i, t + step)) - base) / step
        assert abs(analytic[i] - fd) <= 1e-9 * max(1.0, abs(fd)), (i, analytic[i], fd)


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("variant", list(BoxVariant))
@pytest.mark.parametrize("on_lattice", [True, False])
def test_split_weight_gradient_is_sub_box_response(rng, variant, on_lattice, stride):
    """Output is linear in the sub-box weights, so each weight's gradient is
    <g, output of that sub-box alone with weight 1>, no finite difference.
    Backward returns it for a single box too, whose weight does not train."""
    if on_lattice:
        p = _edge_case_box("lattice", variant)[0]
    else:
        p = init_params(9, variant, rng)
        p = BoxParams(*p.thetas, 9, variant, p.split_theta,
                      tuple(rng.uniform(0.5, 1.5, size=len(p.split_weights))))
    x = rng.normal(size=(1, 11, 10))
    layer = BoxConvLayer([p])
    out, saved = layer.forward(x)
    g = _grid_cotangent(rng, out.shape, stride)
    gw = layer.backward(saved, g).grad_boxes[0].weight
    n = len(p.split_weights)
    for bi in range(n):
        alone = BoxParams(*p.thetas, 9, variant, p.split_theta, tuple(np.eye(n)[bi]))
        response = naive_conv(x[0], effective_kernel(alone))
        want = float(np.sum(g[0] * response))
        assert abs(gw[bi] - want) <= 1e-10 * max(1.0, abs(want)), (bi, gw[bi], want)


def _unpruned(plan):
    """The plan with a zero-weight tap at every cell corner its terms leave out."""
    def fill(taps, floors):
        have = dict(taps)
        corners = {f + i for f in floors for i in (0, 1)}
        return tuple((off, have.get(off, 0.0)) for off in sorted(corners | set(have)))

    terms = [tuple((fill(xs, xf), fill(ys, yf)) for xs, ys in channel_terms)
             for channel_terms, xf, yf in zip(satconv.table.lowering(plan).terms,
                                               plan.x_floor.tolist(), plan.y_floor.tolist())]
    full = replace(plan)
    # read in place of the lowering it would derive
    full.cache["table"] = satconv.table._Lowering(full, terms)
    return full


def _n_term_taps(plan):
    return sum(len(xs) + len(ys) for channel_terms in satconv.table.lowering(plan).terms
               for xs, ys in channel_terms)


@pytest.mark.parametrize("stride", [1, 2])
def test_zero_weight_taps_pruned_without_changing_results(rng, stride, monkeypatch):
    # the terms are the table engine's: its 12x11 planes would take the banded route
    monkeypatch.setattr(satconv.layer, "BANDED_MAX_SIDE", 0)
    equal_split = init_params(9, BoxVariant.SPLIT_4, rng)  # equal sub-box weights
    clipped = BoxParams(-1.0, 0.3, -0.2, 1.0, 9)  # two edges on the window border
    plan = BoxConvLayer([equal_split]).plan
    assert plan.tap_weights().size == 36 and list(plan.n_taps) == [16]
    plan = BoxConvLayer([clipped]).plan
    assert list(plan.n_taps) == [9] and _n_term_taps(_unpruned(plan)) > _n_term_taps(plan)
    for p in (equal_split, clipped):
        pruned = BoxConvLayer([p])
        full = BoxConvLayer([p])
        full.plan = _unpruned(full.plan)
        x = rng.normal(size=(2, 1, 12, 11))
        y, saved = pruned.forward(x)
        y_full, saved_full = full.forward(x)
        assert np.array_equal(y, y_full)
        g = _grid_cotangent(rng, y.shape, stride)
        got, want = pruned.backward(saved, g), full.backward(saved_full, g)
        assert np.array_equal(got.grad_input, want.grad_input)
        for field in ("theta", "split", "weight"):
            assert np.array_equal(getattr(got.grad_boxes[0], field),
                                  getattr(want.grad_boxes[0], field))


_EDGE_SPLITS = {
    BoxVariant.SINGLE: (),
    BoxVariant.SPLIT_H: (-0.2,),
    BoxVariant.SPLIT_V: (0.3,),
    BoxVariant.SPLIT_4: (0.3, -0.2),
}


def _table_taps(x, plan, c):
    """backward's input-path routine for channel c on the edge-padded table
    of each (h, w) plane of x, in the module's strips."""
    n, h, w = x.shape
    low = satconv.table.lowering(plan)
    left, right, top, bottom = low.margins
    out = np.empty(x.shape)
    for i in range(n):
        table = np.zeros((top + h + 1 + bottom, left + w + 1 + right))
        build_sat(x[i], out=table[top : top + h + 1, left : left + w + 1])
        satconv.table._edge_pad(table, top, left, h, w)
        read = table.copy()
        taps = np.empty((h, w))
        satconv.table._table_plane(table, low, c, satconv.table._strip_rows(h, w), taps)
        assert np.array_equal(table, read)  # the table is read, never written
        out[i] = taps[:, :w]
    return out


# Planes of several strips, a batch among them, a k=129 window whose
# margin is wider than its 20x20 plane, a batch of 120x130 planes, each
# one strip under the module's budget, and a k=257 window whose reads span
# the whole margin of a 40x50 plane.
@pytest.mark.parametrize("shape, k", [((1, 2, 300, 300), 13), ((3, 2, 200, 301), 13),
                                      ((1, 2, 20, 20), 129), ((2, 2, 120, 130), 13),
                                      ((1, 2, 40, 50), 257)])
@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("variant", list(BoxVariant))
def test_strips_match_whole_plane_taps(rng, monkeypatch, shape, k, stride, variant):
    monkeypatch.setattr(satconv.layer, "BANDED_MAX_SIDE", 0)  # the table engine's strips
    inner = init_params(k, variant, rng)
    if variant != BoxVariant.SINGLE:
        inner = replace(inner, split_weights=tuple(rng.uniform(0.5, 1.5, len(inner.split_weights))))
    # every edge at the window border, so reads fall in all four margins
    edge = BoxParams(-1.0, 1.0, -1.0, 1.0, k, variant, _EDGE_SPLITS[variant],
                     inner.split_weights)
    layer = BoxConvLayer([inner, edge])
    x = rng.normal(size=shape)
    g = _grid_cotangent(rng, shape, stride)
    dense = [conv2d(x[:, c], effective_kernel(p).weights) for c, p in enumerate(layer.boxes)]
    # the module's strip budget, then budgets of 7 rows of a plane (most
    # heights are no multiple of it) and of 1 row
    outs, tables, grads = [], [], []
    for rows in (None, 7, 1):
        if rows is not None:
            monkeypatch.setattr(satconv.table, "STRIP_BYTES", 8 * shape[-1] * rows)
        out, saved = layer.forward(x)
        outs.append(out.tobytes())
        for c in range(layer.channels):
            want = dense[c]
            scale = max(1e-12, float(np.max(np.abs(want))))
            assert np.max(np.abs(out[:, c] - want)) / scale < 1e-12
            if stride == 1:  # the table routine reads no cotangent: once per shape
                taps = _table_taps(x[:, c], layer.plan, c)
                assert np.max(np.abs(taps - want)) / scale < 1e-12
                tables.append(taps.tobytes())
        grads.append(layer.backward(saved, g).grad_input.tobytes())
        _, saved = layer.forward(x[0])
        grads.append(layer.backward(saved, g[0]).grad_input.tobytes())
    # each pixel's sums run in one order at any strip height: the carried
    # column sums in forward, the fixed y-tap order in both passes
    assert outs[0] == outs[1] == outs[2]
    assert grads[0::2] == [grads[0]] * 3 and grads[1::2] == [grads[1]] * 3
    assert tables[: len(tables) // 3] * 3 == tables


def test_forward_precision_on_large_offset_plane(rng):
    """Sums of a large plane with its mean far from zero lose digits in
    four-corner differences. Forward's column sums grow with the box's
    width rather than the whole plane's: a whole-plane table reads about
    6e-7 here."""
    p = BoxParams(-0.8, 0.7, -0.6, 0.9, 5)  # every edge off the lattice
    x = rng.normal(loc=1e3, size=(1, 1024, 1024))
    out, _ = BoxConvLayer([p]).forward(x)
    want = conv2d(x[0], effective_kernel(p).weights)
    assert np.max(np.abs(out[0] - want)) < 1e-8


def _jacobian(layer, shape):
    """Forward's Jacobian, one column per input pixel, from basis planes."""
    n = math.prod(shape)
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        cols.append(layer.forward(e.reshape(shape))[0].ravel())
    return np.stack(cols, axis=1)


def _check_transposed_jacobian(rng, variant, stride):
    """grad_input equals J^T g, with J assembled from forward on basis planes:
    boxes with every edge on the window border, a k=41 box wider than the
    plane whose reads all fall in the replicated margins, and boxes from
    init_params, on rank-3 and rank-4 inputs of 3-9 px planes."""
    def inner(k):
        p = init_params(k, variant, rng)
        return replace(p, split_weights=tuple(rng.uniform(0.5, 1.5, len(p.split_weights))))

    edge = BoxParams(-1.0, 1.0, -1.0, 1.0, 9, variant, _EDGE_SPLITS[variant],
                     inner(9).split_weights)
    margin = _edge_case_box("margin", variant)[0]
    for boxes in ([edge, inner(9)], [margin, inner(41)]):
        layer = BoxConvLayer(boxes)
        h, w = (int(v) for v in rng.integers(3, 10, size=2))
        for shape in ((2, h, w), (2, 2, h, w)):
            jac = _jacobian(layer, shape)
            y, saved = layer.forward(rng.normal(size=shape))
            g = _grid_cotangent(rng, y.shape, stride)
            got = layer.backward(saved, g).grad_input.ravel()
            want = jac.T @ g.ravel()
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (boxes, shape)


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("variant", list(BoxVariant))
def test_grad_input_is_exact_transposed_jacobian(rng, variant, stride):
    """On the banded route, which planes of 3-9 px take."""
    _check_transposed_jacobian(rng, variant, stride)


@pytest.mark.parametrize("variant", list(BoxVariant))
def test_table_grad_input_is_exact_transposed_jacobian(rng, variant, monkeypatch):
    """The same boxes and planes forced to the table engine: its input
    gradient equals J^T g of its own forward, not only the banded route's."""
    monkeypatch.setattr(satconv.layer, "BANDED_MAX_SIDE", 0)
    _check_transposed_jacobian(rng, variant, 1)
