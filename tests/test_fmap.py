import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satconv.fmap import (
    DimensionError,
    as_feature_map,
    channel_concat,
    channel_shuffle,
    channel_split,
    load_feature_map,
    pointwise_conv,
    save_feature_map,
)


def test_as_feature_map_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        as_feature_map(np.zeros((4, 4)))
    with pytest.raises(DimensionError):
        as_feature_map(np.zeros((1, 0, 4)))


def test_pointwise_identity(rng):
    x = rng.normal(size=(3, 5, 4))
    assert np.array_equal(pointwise_conv(x, np.eye(3), np.zeros(3))[0], x)


def test_pointwise_sums_constant_channels():
    x = np.stack([np.full((4, 4), 2.5), np.full((4, 4), -1.0)])
    out, _ = pointwise_conv(x, [[1.0, 1.0]], [0.0])
    assert out.shape == (1, 4, 4)
    assert np.allclose(out, 1.5)


def test_pointwise_matches_per_pixel_matvec(rng):
    x = rng.normal(size=(3, 4, 4))
    m = rng.normal(size=(2, 3))
    b = rng.normal(size=2)
    out, _ = pointwise_conv(x, m, b)
    for o in range(2):
        for y in range(4):
            for xx in range(4):
                want = b[o] + sum(m[o, c] * x[c, y, xx] for c in range(3))
                assert abs(out[o, y, xx] - want) < 1e-12


def test_pointwise_channel_mismatch(rng):
    with pytest.raises(DimensionError):
        pointwise_conv(rng.normal(size=(3, 2, 2)), np.eye(2), np.zeros(2))


def test_pointwise_rejects_a_matrix_not_of_rank_2(rng):
    x = rng.normal(size=(2, 3, 3))
    with pytest.raises(DimensionError, match="rank 2"):
        pointwise_conv(x, np.ones((1, 2, 2)), np.zeros(1))


def test_pointwise_rejects_a_bias_of_another_shape(rng):
    x = rng.normal(size=(2, 3, 3))
    for bias in (np.zeros(3), np.zeros((2, 1)), 0.0):
        with pytest.raises(DimensionError, match="bias shape"):
            pointwise_conv(x, np.ones((2, 2)), bias)


def test_pointwise_linearity(rng):
    m = rng.normal(size=(3, 4))
    x = rng.normal(size=(4, 6, 5))
    y = rng.normal(size=(4, 6, 5))
    a, b = 0.7, -1.3
    lhs, _ = pointwise_conv(a * x + b * y, m, np.zeros(3))
    rhs = a * pointwise_conv(x, m, np.zeros(3))[0] + b * pointwise_conv(y, m, np.zeros(3))[0]
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_shuffle_single_group_is_identity(rng):
    x = rng.normal(size=(6, 3, 3))
    assert np.array_equal(channel_shuffle(x, 1), x)


def test_shuffle_interleaves_two_groups():
    x = np.arange(4, dtype=float).reshape(4, 1, 1)  # channels A B C D
    out = channel_shuffle(x, 2)
    assert out[:, 0, 0].tolist() == [0.0, 2.0, 1.0, 3.0]  # A C B D


def test_shuffle_twice_groups2_is_identity(rng):
    x = rng.normal(size=(4, 2, 2))
    assert np.array_equal(channel_shuffle(channel_shuffle(x, 2), 2), x)


def test_shuffle_preserves_values(rng):
    x = rng.normal(size=(6, 2, 3))
    out = channel_shuffle(x, 3)
    assert sorted(x.ravel().tolist()) == sorted(out.ravel().tolist())


def test_shuffle_rejects_nondivisible(rng):
    with pytest.raises(DimensionError):
        channel_shuffle(rng.normal(size=(5, 2, 2)), 2)


def test_split_preserves_order(rng):
    x = rng.normal(size=(4, 3, 3))
    a, b = channel_split(x, 2)
    assert np.array_equal(a, x[:2]) and np.array_equal(b, x[2:])


@given(at=st.integers(1, 5), c=st.integers(2, 6))
@settings(max_examples=30, deadline=None)
def test_split_concat_roundtrip(at, c):
    if at >= c:
        return
    x = np.random.default_rng(at * 7 + c).normal(size=(c, 3, 2))
    a, b = channel_split(x, at)
    assert np.array_equal(channel_concat(a, b), x)


def test_swapped_concat_differs(rng):
    x = rng.normal(size=(4, 2, 2))
    a, b = channel_split(x, 2)
    assert not np.array_equal(channel_concat(b, a), x)


def test_split_bounds(rng):
    x = rng.normal(size=(3, 2, 2))
    for at in (0, 3, 5):
        with pytest.raises(DimensionError):
            channel_split(x, at)
    with pytest.raises(DimensionError):
        channel_concat(x, rng.normal(size=(2, 3, 2)))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_feature_map_file_roundtrip(tmp_path, rng, dtype):
    """A map is saved as float64 and reads back as float64, whichever dtype
    it was given in."""
    x = rng.normal(size=(3, 5, 4)).astype(dtype)
    path = tmp_path / "x.fm"
    save_feature_map(path, x)
    back = load_feature_map(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, x)


def test_float32_file_loads_as_float64(tmp_path):
    """A file of tag 1, float32 scalars, written by hand."""
    x = np.array([0.5, -1.25, 3.0, 1e-3, 7.0, -2.0], dtype="<f4").reshape(2, 1, 3)
    path = tmp_path / "x32.fm"
    path.write_bytes(b"SATFM1" + struct.pack("<IIIB", 2, 1, 3, 1) + x.tobytes())
    back = load_feature_map(path)
    assert back.dtype == np.float64 and back.shape == (2, 1, 3)
    assert np.array_equal(back, x.astype(np.float64))


@pytest.mark.parametrize("tag,dtype", [(0, "<f8"), (1, "<f4")])
def test_loaded_maps_are_writable(tmp_path, tag, dtype):
    """Both tags load as an array of its own, not a read-only view of the file."""
    path = tmp_path / "x.fm"
    path.write_bytes(b"SATFM1" + struct.pack("<IIIB", 1, 2, 2, tag)
                     + np.ones(4, dtype=dtype).tobytes())
    back = load_feature_map(path)
    assert back.flags.writeable
    back[0, 1, 1] = 5.0
    assert back.sum() == 8.0


@pytest.mark.parametrize("dtype", [np.float32, np.int32, np.uint8, np.bool_])
def test_maps_of_other_dtypes_come_out_float64(rng, dtype):
    """as_feature_map makes every map float64, so pointwise_conv and the
    channel ops return float64 maps equal to those of the float64 input."""
    x = rng.integers(0, 2 if dtype is np.bool_ else 100, size=(2, 4, 3, 5)).astype(dtype)
    x64 = x.astype(np.float64)
    m, b = rng.normal(size=(3, 4)), rng.normal(size=3)
    assert as_feature_map(x).dtype == np.float64
    for op in (lambda v: pointwise_conv(v, m, b), lambda v: channel_shuffle(v, 2),
               lambda v: channel_split(v, 1), lambda v: channel_concat(v, v)):
        got, want = op(x), op(x64)
        for a, w in zip(got, want) if isinstance(got, tuple) else ((got, want),):
            assert a.dtype == np.float64 and a.tobytes() == w.tobytes()


def test_as_feature_map_rejects_complex_maps():
    """Converting would drop the imaginary part; the dtype is named instead."""
    for dtype in (np.complex64, np.complex128):
        with pytest.raises(TypeError, match="complex"):
            as_feature_map(np.ones((1, 2, 2), dtype=dtype))


def test_feature_map_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.fm"
    path.write_bytes(b"NOTFM1" + b"\x00" * 20)
    with pytest.raises(ValueError):
        load_feature_map(path)
    path.write_bytes(b"SATFM1" + b"\x00" * 5)
    with pytest.raises(ValueError):
        load_feature_map(path)
