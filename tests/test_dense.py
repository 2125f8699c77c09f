import functools

import numpy as np
import pytest

import satconv.bench
import satconv.dense
import satconv.oracle
from satconv.bench import dilation_for, run_bench
from satconv.dense import conv2d, conv2d_input_grad, conv2d_kernel_grad
from satconv.oracle import DenseKernel, naive_conv, tap_conv


def test_conv2d_matches_loop_oracle(rng):
    for d in (1, 2, 4):
        for size in (3, 4):
            x = rng.normal(size=(7, 9))
            k = rng.normal(size=(size, size))
            got = conv2d(x, k, dilation=d)
            want = naive_conv(x, DenseKernel(k, dilation=d))
            assert np.max(np.abs(got - want)) < 1e-12


def test_conv2d_grads_match_exact_linearization(rng):
    x = rng.normal(size=(6, 5))
    k = rng.normal(size=(3, 3))
    g = rng.normal(size=(6, 5))
    gin = conv2d_input_grad(k, g)
    gk = conv2d_kernel_grad(x, g, k.shape)
    # input grad: adjoint identity against a random direction
    v = rng.normal(size=x.shape)
    lhs = float(np.sum(gin * v))
    rhs = float(np.sum(g * conv2d(v, k)))
    assert abs(lhs - rhs) < 1e-9
    # kernel grad: the map is linear in the kernel too
    u = rng.normal(size=k.shape)
    lhs = float(np.sum(gk * u))
    rhs = float(np.sum(g * conv2d(x, u)))
    assert abs(lhs - rhs) < 1e-9


def test_conv2d_dilated_grads(rng):
    x = rng.normal(size=(8, 8))
    k = rng.normal(size=(4, 4))
    g = rng.normal(size=(8, 8))
    gin = conv2d_input_grad(k, g, dilation=2)
    v = rng.normal(size=x.shape)
    assert abs(float(np.sum(gin * v)) - float(np.sum(g * conv2d(v, k, dilation=2)))) < 1e-9


# What each case runs: "matmul" is dense.py's banded matrix products,
# "strips" the same products one output row per strip, as on planes whose
# rows matrix passes STRIP_BYTES, and "taps" the benchmark's O(k^2)
# baseline, oracle.tap_conv, which has no gradients. Each is held to
# naive_conv.
ROUTES = ("taps", "matmul", "strips")
WIDTHS = (1, 7, 15, 16, 17, 33, 40)  # below, at and past multiples of TILE = 16
SIZES = range(1, 11)  # square kernels 1x1 to 10x10; the even ones anchor at size // 2 - 1
DILATIONS = (1, 2, 4)


@pytest.fixture(params=ROUTES)
def route(request, monkeypatch):
    if request.param == "strips":
        monkeypatch.setattr(satconv.dense, "STRIP_BYTES", 0)
    return request.param


def _mirrored(kernel):
    """kernel flipped on both axes, with a zero row and column appended to
    each even axis, so that naive_conv's anchor lands on the mirror of
    kernel's: correlation with it is the transpose of correlation with kernel."""
    kh, kw = kernel.shape
    return np.pad(kernel[::-1, ::-1], ((0, 1 - kh % 2), (0, 1 - kw % 2)))


@functools.cache
def _case(w, size, d):
    """Planes, kernels and cotangent of one case, with naive_conv's forward,
    input gradient and kernel gradient. The rank, 2, 3 or 4, cycles with the
    dilation; ranks 3 and 4 filter with a (C, size, size) kernel stack."""
    rng = np.random.default_rng([w, size, d])
    lead = ((), (2,), (2, 2))[(size + DILATIONS.index(d)) % 3]
    x, g = rng.normal(size=(2,) + lead + (3, w))
    kernels = rng.normal(size=lead[-1:] + (size, size))
    want = np.zeros((2,) + lead + (3, w)), np.zeros(lead + (size, size))
    for idx in np.ndindex(lead):
        k = kernels[idx[-1:]]
        want[0][(0,) + idx] = naive_conv(x[idx], DenseKernel(k, dilation=d))
        want[0][(1,) + idx] = naive_conv(g[idx], DenseKernel(_mirrored(k), dilation=d))
        for u, v in np.ndindex(k.shape):
            unit = np.zeros(k.shape)
            unit[u, v] = 1.0
            shifted = naive_conv(x[idx], DenseKernel(unit, dilation=d))
            want[1][idx + (u, v)] = np.sum(g[idx] * shifted)
    return x, kernels, g, want


@pytest.mark.parametrize("w", WIDTHS)
def test_routes_match_naive_conv(route, w):
    forward = tap_conv if route == "taps" else conv2d
    for size in SIZES:
        for d in DILATIONS:
            x, k, g, (want_maps, want_gk) = _case(w, size, d)
            got = forward(x, k, dilation=d)
            assert got.shape == want_maps[0].shape
            assert np.max(np.abs(got - want_maps[0])) < 1e-12, ("forward", size, d)
            if route == "taps":
                continue
            gin = conv2d_input_grad(k, g, dilation=d)
            assert gin.shape == want_maps[1].shape
            assert np.max(np.abs(gin - want_maps[1])) < 1e-12, ("input grad", size, d)
            gk = conv2d_kernel_grad(x, g, k.shape[-2:], dilation=d)
            assert gk.shape == want_gk.shape
            assert np.max(np.abs(gk - want_gk)) < 1e-12, ("kernel grad", size, d)


def test_stack_gets_each_planes_arithmetic(route, rng):
    # a whole (N, C, H, W) stack, filtered by a (C, kh, kw) kernel stack, gives
    # every plane the same bytes as a call on that plane alone
    x, g = rng.normal(size=(2, 3, 2, 9, 40))
    k = rng.normal(size=(2, 3, 3))
    if route == "taps":
        passes = (lambda x, g, k: tap_conv(x, k),)
    else:
        passes = (lambda x, g, k: conv2d(x, k), lambda x, g, k: conv2d_input_grad(k, g),
                  lambda x, g, k: conv2d_kernel_grad(x, g, (3, 3)))
    for run in passes:
        whole = run(x, g, k)
        for n, c in np.ndindex(3, 2):
            assert np.array_equal(whole[n, c], run(x[n, c], g[n, c], k[c])), (n, c)


def test_bench_times_the_taps_and_dense_runs_products(monkeypatch):
    # satconv bench's naive_dense and dilated rows call the tap baseline at
    # every k; dense.py's three passes take the products at every extent and
    # never call it
    taps = []
    monkeypatch.setattr(satconv.bench, "tap_conv",
                        lambda x, k, d=1: taps.append((k.shape, d)) or tap_conv(x, k, d))
    k_list = (3, 5, 7, 9, 13)
    run_bench(k_list, 8, 8, channels=2, repeats=1)
    assert set(taps) == ({((2, k + 1, k + 1), 1) for k in k_list}
                         | {((4, 4), dilation_for(k)) for k in k_list})

    taps.clear()
    monkeypatch.setattr(satconv.oracle, "tap_conv", satconv.bench.tap_conv)
    strips, row_strips = [], satconv.dense._row_strips
    monkeypatch.setattr(satconv.dense, "_row_strips",
                        lambda *a: strips.append(a[2:]) or row_strips(*a))
    x = np.zeros((5, 5))
    for size, d in ((8, 1), (4, 3), (3, 4), (22, 1)):
        strips.clear()
        k = np.ones((size, size))
        conv2d(x, k, dilation=d)
        conv2d_input_grad(k, x, dilation=d)
        conv2d_kernel_grad(x, x, k.shape, dilation=d)
        assert strips == [(size, size, d)] * 3, (size, d)
    assert taps == []


_THREADS_SCRIPT = """
import hashlib
import numpy as np
from satconv.dense import conv2d, conv2d_input_grad, conv2d_kernel_grad
rng = np.random.default_rng(7)
digest = hashlib.sha256()
for shape, size, d in (((4, 4, 32, 32), 3, 1), ((1, 16, 256, 256), 3, 1),
                       ((4, 4, 32, 32), 7, 1), ((4, 4, 32, 32), 4, 2),
                       ((4, 4, 32, 32), 9, 1), ((1, 1, 16, 16), 10, 1)):
    x, g = rng.normal(size=(2,) + shape)
    k = rng.normal(size=(shape[1], size, size))
    for a in (conv2d(x, k, d), conv2d_input_grad(k, g, d),
              conv2d_kernel_grad(x, g, k.shape[-2:], d)):
        digest.update(a.tobytes())
print(digest.hexdigest())
"""


def test_results_do_not_depend_on_blas_threads(digests_by_blas_threads):
    """The forward, input gradient and kernel gradient are the same bytes
    with one BLAS thread, two, and the library's default."""
    digests = digests_by_blas_threads(_THREADS_SCRIPT)
    assert digests[0] == digests[1] == digests[2]
