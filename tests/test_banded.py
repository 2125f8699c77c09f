"""The box layer's two routes: banded matrix products for small planes, the
table engine for larger ones. Each test forces a route by setting
layer.BANDED_MAX_SIDE; both must give the oracle's results and each other's."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import satconv.banded
import satconv.layer
import satconv.table
from satconv.boxes import SPLIT_EDGES, BoxParams, BoxVariant, init_params
from satconv.dense import conv2d
from satconv.gradcheck import CATEGORIES, run_gradcheck
from satconv.layer import BoxConvLayer
from satconv.oracle import effective_kernel

ROUTES = {"table": 0, "banded": 10**9}  # BANDED_MAX_SIDE that forces each route


@pytest.fixture(params=list(ROUTES))
def route(request, monkeypatch):
    monkeypatch.setattr(satconv.layer, "BANDED_MAX_SIDE", ROUTES[request.param])
    return request.param


def _splits(rng, variant, lo, hi):
    """Split lines drawn between the edges lo and hi (x, then y)."""
    return tuple(float(rng.uniform(lo[e // 2], hi[e // 2])) for e in SPLIT_EDGES[variant])


def _box(rng, k, variant, kind):
    """A box of one of the kinds the routes must agree on: drawn by
    init_params, with its equal sub-box weights ("equal", which the table
    engine folds into one term for split_4) or unequal ones ("init"), wide
    with random edges (some at +-1), on the lattice, or wholly past the
    right and bottom of a small plane."""
    r = (k - 1) / 2
    if kind in ("init", "equal"):
        p = init_params(k, variant, rng)
    else:
        if kind == "wide":
            t = np.sort(rng.uniform(-1.0, 1.0, size=(2, 2)), axis=1)
            t[:, 0][rng.uniform(size=2) < 0.25] = -1.0
            t[:, 1][rng.uniform(size=2) < 0.25] = 1.0
        elif kind == "lattice":
            t = np.sort(rng.integers(-int(r), int(r) + 1, size=(2, 2)), axis=1) / r
        else:  # "off": every offset past the far edge of a plane narrower than r / 2
            t = np.sort(rng.uniform(0.6, 1.0, size=(2, 2)), axis=1)
        (xl, xh), (yl, yh) = t.tolist()
        p = BoxParams(xl, xh, yl, yh, k, variant, _splits(rng, variant, (xl, yl), (xh, yh)),
                      init_params(k, variant, rng).split_weights)
    if variant != BoxVariant.SINGLE and kind != "equal":
        p = replace(p, split_weights=tuple(rng.uniform(-1.5, 1.5, len(p.split_weights))))
    return p


def _run(layer, x, g):
    y, saved = layer.forward(x)
    grads = layer.backward(saved, g)
    b = grads.boxes
    return [y, grads.grad_input, b.theta, b.split, b.weight]


def _cases(rng):
    """(boxes, input shape): every variant; k from 3 to 129; planes from 1x1
    up to just past BANDED_MAX_SIDE; rank 3 and 4; equal and unequal sub-box
    weights; boxes wholly off a tiny plane."""
    side = satconv.layer.BANDED_MAX_SIDE
    cases = ((3, "init", (1, 1)), (5, "lattice", (2, 7)), (9, "init", (13, 11)),
             (9, "lattice", (12, 9)), (13, "wide", (32, 32)), (41, "wide", (20, 33)),
             (129, "wide", (9, 17)), (129, "off", (3, 4)), (33, "off", (2, 2)),
             (9, "equal", (13, 11)), (13, "equal", (32, 32)),
             (13, "init", (side, side + 1)), (5, "wide", (side + 1, 6)))
    for i, variant in enumerate(BoxVariant):
        for j, (k, kind, (h, w)) in enumerate(cases):
            boxes = [_box(rng, k, variant, kind) for _ in range(3)]
            lead = (2,) if (i + j // 2) % 2 else ()
            yield boxes, lead + (3, h, w)


def test_routes_match_oracle_and_each_other(rng, monkeypatch):
    for boxes, shape in list(_cases(rng)):
        layer = BoxConvLayer(boxes)
        x = rng.normal(size=shape)
        g = rng.normal(size=shape)
        runs = []
        for name, side in ROUTES.items():
            monkeypatch.setattr(satconv.layer, "BANDED_MAX_SIDE", side)
            runs.append(_run(layer, x, g))
            y = runs[-1][0]
            for c, p in enumerate(layer.boxes):
                want = conv2d(x[..., c, :, :], effective_kernel(p).weights)
                scale = max(1.0, float(np.max(np.abs(want))))
                err = float(np.max(np.abs(y[..., c, :, :] - want))) / scale
                assert err < 1e-12, (name, shape, p, err)
        for field, table, banded in zip(("output", "grad_input", "theta", "split", "weight"),
                                        *runs):
            assert table.shape == banded.shape
            if table.size:
                scale = max(1.0, float(np.max(np.abs(table))))
                err = float(np.max(np.abs(table - banded))) / scale
                assert err < 1e-12, (field, shape, boxes[0], err)


def test_boxes_off_a_tiny_plane_read_nothing(route):
    """Every site past the plane: zero output and zero gradients on both routes."""
    layer = BoxConvLayer([BoxParams(0.7, 0.9, 0.75, 1.0, 41, BoxVariant.SPLIT_4, (0.8, 0.8),
                                    (1.0, -0.5, 2.0, 0.25))])
    x = np.random.default_rng(1).normal(size=(1, 4, 5))
    y, grad_input, theta, split, weight = _run(layer, x, np.ones((1, 4, 5)))
    assert not y.any() and not grad_input.any()
    assert not theta.any() and not split.any() and not weight.any()


def test_route_by_plane_size(monkeypatch):
    """Planes up to BANDED_MAX_SIDE a side take the banded route, larger ones,
    the benchmark's 256^2 and 1024^2 among them, the table engine."""
    taken = []
    for owner, name in ((satconv.layer, "_banded_forward"), (satconv.table, "forward")):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *a, _fn=fn, _name=name: taken.append(_name) or _fn(*a))
    side = satconv.layer.BANDED_MAX_SIDE
    layer = BoxConvLayer([init_params(13, rng=np.random.default_rng(0))])
    for (h, w), want in (((1, 1), "_banded_forward"), ((side, side), "_banded_forward"),
                         ((3, side), "_banded_forward"), ((side + 1, 3), "forward"),
                         ((3, side + 1), "forward"), ((256, 256), "forward"),
                         ((1024, 1024), "forward")):
        taken.clear()
        layer.forward(np.zeros((1, h, w)))
        assert taken == [want], (h, w)


def test_banded_route_names_non_finite_channel(rng, monkeypatch):
    """As on the table engine (tests/test_layer.py): a NaN in channel 2 is
    named, and an inf in a later channel does not hide it; a channel whose
    filtered values overflow float64 is named, and the same values at a
    finite scale pass."""
    monkeypatch.setattr(satconv.layer, "BANDED_MAX_SIDE", ROUTES["banded"])
    layer = BoxConvLayer([init_params(9, rng=rng) for _ in range(4)])
    x = rng.normal(size=(2, 4, 16, 16))
    x[1, 2, 5, 7] = np.nan
    with pytest.raises(ValueError, match="channel 2:"):
        layer.forward(x)
    x[0, 3, 0, 0] = np.inf
    with pytest.raises(ValueError, match="channel 2:"):
        layer.forward(x)
    layer = BoxConvLayer([init_params(9, rng=rng), BoxParams(-0.5, 0.5, -0.5, 0.5, 9)])
    x = rng.normal(size=(2, 6, 6))
    x[1] = 1e308  # a 5x5 box sums 25 of them
    with pytest.raises(ValueError, match="channel 1:"):
        layer.forward(x)
    x[1] *= 1e-300
    assert np.isfinite(layer.forward(x)[0]).all()


@pytest.mark.parametrize("dtype", [np.float32, np.int16])
def test_maps_of_other_dtypes_run_as_float64(route, rng, dtype):
    """A float32 or integer input and cotangent give float64 results equal
    to those of the same values as float64, on both routes."""
    layer = BoxConvLayer([_box(rng, 9, BoxVariant.SPLIT_4, kind) for kind in ("init", "wide")])
    for shape in ((2, 7, 6), (2, 2, 7, 6)):
        x = rng.integers(-9, 10, size=shape).astype(dtype)
        g = rng.integers(-9, 10, size=shape).astype(dtype)
        got = _run(layer, x, g)
        want = _run(layer, x.astype(np.float64), g.astype(np.float64))
        for a, b in zip(got, want):
            assert a.dtype == np.float64 and a.tobytes() == b.tobytes()


def test_bands_are_built_in_one_step(monkeypatch):
    """A forward on a new plan and plane size builds every banded matrix,
    B_g and P_g along the width and Y_g along the height; the backward that
    follows builds none, and another plane size one more set."""
    sides = []  # the side of each Toeplitz matrix built
    toeplitz = satconv.banded._toeplitz
    monkeypatch.setattr(satconv.banded, "_toeplitz",
                        lambda p, n: sides.append(n) or toeplitz(p, n))
    monkeypatch.setattr(satconv.layer, "BANDED_MAX_SIDE", ROUTES["banded"])
    rng = np.random.default_rng(3)
    layer = BoxConvLayer([_box(rng, 9, BoxVariant.SPLIT_4, "init")])
    y, saved = layer.forward(rng.normal(size=(1, 7, 6)))
    assert sorted(sides) == [6, 6, 7]
    layer.backward(saved, y)
    assert sorted(sides) == [6, 6, 7]
    y, saved = layer.forward(rng.normal(size=(1, 5, 8)))
    layer.backward(saved, y)
    assert sorted(sides[3:]) == [5, 8, 8]


@pytest.mark.parametrize("seed", [0, 33])
def test_gradcheck_on_both_routes(route, seed):
    rep = run_gradcheck(seed=seed, tolerance=1e-5)
    assert rep.passed, rep.failures[:5]
    checked = [cat for cat in CATEGORIES if cat in rep.n_checks]
    assert set(checked) >= set(CATEGORIES) - {"input_adjoint"}
    assert all(rep.n_nonzero[cat] > 0 for cat in checked), rep.n_nonzero


_THREADS_SCRIPT = """
import hashlib, sys
import numpy as np
from satconv.boxes import init_params
from satconv.layer import BANDED_MAX_SIDE, BoxConvLayer
rng = np.random.default_rng(5)
digest = hashlib.sha256()
side = BANDED_MAX_SIDE
for k, shape in ((9, (4, 4, 32, 32)), (13, (4, 4, 32, 32)), (13, (2, 2, side, side))):
    layer = BoxConvLayer([init_params(k, rng=rng) for _ in range(shape[1])])
    x = rng.normal(size=shape)
    y, saved = layer.forward(x)
    grads = layer.backward(saved, rng.normal(size=y.shape))
    for a in (y, grads.grad_input, grads.boxes.theta, grads.boxes.split, grads.boxes.weight):
        digest.update(a.tobytes())
print(digest.hexdigest())
"""


def test_results_do_not_depend_on_blas_threads(digests_by_blas_threads):
    """satconv train and the tests leave the BLAS thread count as it is: a
    keypoint layer's results, and those of the largest banded planes, are
    the same bytes with one thread, two, and the library's default."""
    digests = digests_by_blas_threads(_THREADS_SCRIPT)
    assert digests[0] == digests[1] == digests[2]


# Forward's error on planes whose mean lies far from zero, over the
# largest sum an output could reach (the largest |input| times the sum of
# |kernel weights|). The worst measured over 3000 random planes was 5.1e-14
# on the table route and 1.8e-14 on the banded one.
LARGE_OFFSET_BOUND = 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), mean=st.floats(-1e6, 1e6),
       h=st.integers(1, 40), w=st.integers(1, 40),
       k=st.sampled_from([3, 9, 13, 41]), variant=st.sampled_from(list(BoxVariant)))
def test_forward_precision_at_large_offsets(seed, mean, h, w, k, variant):
    rng = np.random.default_rng(seed)
    p = _box(rng, k, variant, "wide")
    x = mean + rng.normal(size=(1, h, w))
    kernel = effective_kernel(p).weights
    want = conv2d(x[0], kernel)
    bound = LARGE_OFFSET_BOUND * float(np.max(np.abs(x))) * float(np.abs(kernel).sum())
    for side in ROUTES.values():
        satconv.layer.BANDED_MAX_SIDE, saved = side, satconv.layer.BANDED_MAX_SIDE
        try:
            out, _ = BoxConvLayer([p]).forward(x)
        finally:
            satconv.layer.BANDED_MAX_SIDE = saved
        assert float(np.max(np.abs(out[0] - want))) <= bound, side
