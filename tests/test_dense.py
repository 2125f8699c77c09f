import functools

import numpy as np
import pytest

import satconv.dense
from satconv.dense import conv2d, conv2d_input_grad, conv2d_kernel_grad
from satconv.oracle import DenseKernel, naive_conv


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


# The two routes, chosen by the kernel's extent: banded matrix products up to
# MATMUL_MAX_EXTENT, taps past it. Each test below forces a route by setting
# that constant, and holds it to naive_conv; "strips" runs the products one
# output row at a time, as on planes whose rows matrix passes STRIP_BYTES.
ROUTES = {"taps": (0, None), "matmul": (10**9, None), "strips": (10**9, 0)}
WIDTHS = (1, 7, 15, 16, 17, 33, 40)  # below, at and past multiples of TILE = 16
SIZES = range(1, 8)  # square kernels 1x1 to 7x7; the even ones anchor at size // 2 - 1
DILATIONS = (1, 2, 4)


@pytest.fixture(params=list(ROUTES))
def route(request, monkeypatch):
    max_extent, strip_bytes = ROUTES[request.param]
    monkeypatch.setattr(satconv.dense, "MATMUL_MAX_EXTENT", max_extent)
    if strip_bytes is not None:
        monkeypatch.setattr(satconv.dense, "STRIP_BYTES", strip_bytes)
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
    for size in SIZES:
        for d in DILATIONS:
            x, k, g, (want_maps, want_gk) = _case(w, size, d)
            got = (conv2d(x, k, dilation=d), conv2d_input_grad(k, g, dilation=d))
            for name, a, b in zip(("forward", "input grad"), got, want_maps):
                assert a.shape == b.shape and np.max(np.abs(a - b)) < 1e-12, (name, size, d)
            gk = conv2d_kernel_grad(x, g, k.shape[-2:], dilation=d)
            assert gk.shape == want_gk.shape
            assert np.max(np.abs(gk - want_gk)) < 1e-12, ("kernel grad", size, d)


def test_stack_gets_each_planes_arithmetic(route, rng):
    # a whole (N, C, H, W) stack, filtered by a (C, kh, kw) kernel stack, gives
    # every plane the same bytes as a call on that plane alone
    x, g = rng.normal(size=(2, 3, 2, 9, 40))
    k = rng.normal(size=(2, 3, 3))
    whole = (conv2d(x, k), conv2d_input_grad(k, g), conv2d_kernel_grad(x, g, (3, 3)))
    for n, c in np.ndindex(3, 2):
        alone = (conv2d(x[n, c], k[c]), conv2d_input_grad(k[c], g[n, c]),
                 conv2d_kernel_grad(x[n, c], g[n, c], (3, 3)))
        for a, b in zip(whole, alone):
            assert np.array_equal(a[n, c], b), (n, c)


def test_route_follows_the_kernel_extent(monkeypatch):
    # extents up to MATMUL_MAX_EXTENT take the products, larger ones the
    # taps; the benchmark's naive_dense kernels from k = 7 on (8x8) stay taps
    calls = []
    strips = satconv.dense._row_strips
    monkeypatch.setattr(satconv.dense, "_row_strips", lambda *a: calls.append(a[2:]) or strips(*a))
    x = np.zeros((5, 5))
    for size, d, matmul in ((3, 1, True), (7, 1, True), (4, 2, True), (8, 1, False),
                            (4, 3, False), (3, 4, False), (22, 1, False)):
        calls.clear()
        conv2d(x, np.ones((size, size)), dilation=d)
        assert calls == ([(size, size, d)] if matmul else []), (size, d)


_THREADS_SCRIPT = """
import hashlib
import numpy as np
from satconv.dense import conv2d, conv2d_input_grad, conv2d_kernel_grad
rng = np.random.default_rng(7)
digest = hashlib.sha256()
for shape, size, d in (((4, 4, 32, 32), 3, 1), ((1, 16, 256, 256), 3, 1),
                       ((4, 4, 32, 32), 7, 1), ((4, 4, 32, 32), 4, 2)):
    x, g = rng.normal(size=(2,) + shape)
    k = rng.normal(size=(shape[1], size, size))
    for a in (conv2d(x, k, d), conv2d_input_grad(k, g, d),
              conv2d_kernel_grad(x, g, k.shape[-2:], d)):
        digest.update(a.tobytes())
print(digest.hexdigest())
"""


def test_results_do_not_depend_on_blas_threads(digests_by_blas_threads):
    """The matrix route's forward, input gradient and kernel gradient are the
    same bytes with one BLAS thread, two, and the library's default."""
    digests = digests_by_blas_threads(_THREADS_SCRIPT)
    assert digests[0] == digests[1] == digests[2]
