"""Feature maps and channel plumbing.

A feature map is a C-contiguous float64 ndarray of shape (channels,
height, width), or a batch of them, (samples, channels, height, width).
Everything spatial in this package assumes that layout: the channel axis is
-3, rows are major within a channel, and a leading sample axis, when
present, is carried through unchanged. as_feature_map alone decides the
dtype: every map, float32 and integer ones too, is float64 past it. The
binary file format holds one unbatched map, written as float64; files of
float32 scalars read as float64 too.
"""

from __future__ import annotations

import struct

import numpy as np

FMAP_MAGIC = b"SATFM1"

_TAG_TO_DTYPE = {0: np.dtype("<f8"), 1: np.dtype("<f4")}


class DimensionError(ValueError):
    """Shape or channel-count mismatch between operands."""


def non_finite_channel(c) -> ValueError:
    """The error for channel c of a map the box layer cannot filter, on either route."""
    return ValueError(f"channel {c}: input holds NaN or inf, or its sums overflow float64")


def as_feature_map(x) -> np.ndarray:
    """Validate an array as a ([samples,] channels, height, width) map and
    return it C-contiguous float64, converted only where it is not already.
    A complex array is rejected: its imaginary part would be dropped."""
    x = np.asarray(x)
    if x.ndim not in (3, 4):
        raise DimensionError(f"feature map must be rank 3 or 4, got shape {x.shape}")
    if min(x.shape) < 1:
        raise DimensionError(f"feature map axes must be >= 1, got shape {x.shape}")
    if np.iscomplexobj(x):
        raise TypeError(f"a feature map is real, got dtype {x.dtype}")
    return np.ascontiguousarray(x, dtype=np.float64)


def pointwise_conv(x, matrix, bias):
    """Per-pixel linear map across channels: the (out_channels, in_channels)
    matrix times each pixel's channel vector, plus the (out_channels,) bias.

    Returns the output map and its pixels, ([samples,] channels + 1,
    height * width): x's channels and a row of ones, which carries the
    bias. The output is one np.matmul per sample, [matrix | bias] times the
    pixels. The ones row keeps the product's inner dimension at 2 or more,
    where matmul calls BLAS; over one channel NumPy runs an outer-product
    loop of its own, several times slower. The matrix and bias gradients
    read nothing else (nets.Pointwise)."""
    x = as_feature_map(x)
    m = np.asarray(matrix, dtype=np.float64)
    b = np.asarray(bias, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"matrix must be rank 2, got shape {m.shape}")
    if b.shape != (m.shape[0],):
        raise DimensionError(f"bias shape {b.shape} does not match {m.shape[0]} output channels")
    if x.shape[-3] != m.shape[1]:
        raise DimensionError(f"input has {x.shape[-3]} channels, matrix expects {m.shape[1]}")
    *lead, c, h, w = x.shape
    pixels = np.empty((*lead, c + 1, h * w))
    pixels[..., :c, :] = x.reshape(*lead, c, h * w)
    pixels[..., c, :] = 1.0
    y = np.matmul(np.concatenate((m, b[:, None]), axis=1), pixels)
    return y.reshape(*lead, m.shape[0], h, w), pixels


def channel_shuffle(x, groups: int) -> np.ndarray:
    """Interleave channel groups: position (g, i) moves to (i, g).

    The shuffle blocks in nets interleave their two halves directly; this,
    channel_split and channel_concat are the reference they are tested
    against."""
    x = as_feature_map(x)
    *lead, c, h, w = x.shape
    if groups < 1 or c % groups != 0:
        raise DimensionError(f"{c} channels not divisible into {groups} groups")
    per = c // groups
    return np.ascontiguousarray(
        x.reshape(*lead, groups, per, h, w).swapaxes(-4, -3).reshape(x.shape)
    )


def channel_split(x, at: int):
    x = as_feature_map(x)
    if not 0 < at < x.shape[-3]:
        raise DimensionError(f"split point {at} out of range for {x.shape[-3]} channels")
    return x[..., :at, :, :].copy(), x[..., at:, :, :].copy()


def channel_concat(a, b) -> np.ndarray:
    a = as_feature_map(a)
    b = as_feature_map(b)
    if a.shape[:-3] != b.shape[:-3] or a.shape[-2:] != b.shape[-2:]:
        raise DimensionError(f"sample or spatial shapes differ: {a.shape} vs {b.shape}")
    return np.concatenate([a, b], axis=-3)


def save_feature_map(path, x) -> None:
    """Flat binary format: magic, u32 channels/height/width, u8 dtype tag
    (always 0, float64), raw LE scalars."""
    x = as_feature_map(x)
    if x.ndim != 3:
        raise DimensionError(f"a feature map file holds one (C, H, W) map, got shape {x.shape}")
    with open(path, "wb") as f:
        f.write(FMAP_MAGIC)
        f.write(struct.pack("<IIIB", *x.shape, 0))
        f.write(x.astype(_TAG_TO_DTYPE[0], copy=False).tobytes())


def load_feature_map(path) -> np.ndarray:
    """A feature map file's map, float64 whichever its tag: 0 for float64
    scalars, 1 for float32."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[: len(FMAP_MAGIC)] != FMAP_MAGIC:
        raise ValueError(f"{path}: not a feature map file (bad magic)")
    if len(raw) < len(FMAP_MAGIC) + struct.calcsize("<IIIB"):
        raise ValueError(f"{path}: truncated header")
    c, h, w, tag = struct.unpack_from("<IIIB", raw, len(FMAP_MAGIC))
    if tag not in _TAG_TO_DTYPE:
        raise ValueError(f"{path}: unknown dtype tag {tag}")
    dt = _TAG_TO_DTYPE[tag]
    start = len(FMAP_MAGIC) + struct.calcsize("<IIIB")
    expected = c * h * w * dt.itemsize
    if len(raw) - start != expected:
        raise ValueError(f"{path}: payload is {len(raw) - start} bytes, expected {expected}")
    # astype copies: a view of the file's bytes would be read-only
    data = np.frombuffer(raw, dtype=dt, offset=start).astype(np.float64)
    return as_feature_map(data.reshape(c, h, w))
